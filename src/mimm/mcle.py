"""Maximum conditional likelihood estimation.

The conditional likelihood of the observed ordering, given the multiset of
values with the first and last d positions frozen, is an exponential family
over interior permutations whose normalizer cancels all intractable marginal
terms.  Sampling runs a Metropolis-Hastings chain over interior
transpositions (the exchange algorithm); estimation is Fisher scoring with
the chain's moment estimates of the sufficient statistic.

One chain is strictly sequential; independent chains with different seeds
may run in parallel.  Fisher scoring consumes one chain per iteration, with
statistics retained instead of permutations: each block of proposals
leaves the statistic change of every accepted move in a K x steps array,
one cumulative sum per term turns it into the block's statistic path, and
the recorded rows are copied out of it (memory O(L K + B K) for L recorded
samples and a block of B = 4096 proposals).

Each step is scalar Python, so its cost is the interpreter's per
proposal.  To keep that small, the proposals of a block are drawn as
position pairs in numpy (``core._uniform_pairs``) and read by the step
through ``memoryview``s of those arrays, as Python ints and floats with no
list built, and the step is compiled
once per spec into straight-line source generated from the spec's
``MonomialTable`` plan (:func:`_exchange_kernel`): no loops over terms or
factors remain, an accepted move writes one statistic change per term and
the ordering is held once, in one Python list per power column; the
table's exponent-1 columns (``MonomialTable.values``) hold the data
themselves.  A far pair (s2 - s1 > d) takes the factored form of
:mod:`mimm.core`, the neighbour sums ``S_g`` read straight from the column
lists, and an accepted swap exchanges two entries of each list; a near
pair runs :func:`core._swap_delta_rows` unrolled for its gap on the value
columns, which gives the same floats.  The far step gives the swap
delta of the direct path to rounding, so the chain makes the same moves.
Every chain reports its effective sample size and split-R-hat per
statistic.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    _SWAP_BLOCK,
    DependenceSpec,
    TimeSeries,
    _all_pairs_blocks,
    _check_count,
    _check_finite_statistics,
    _check_identified,
    _check_positive,
    _interior_bounds,
    _uniform_pairs,
    total_statistic,
)
from .exceptions import (
    IllConditionedError,
    ShapeMismatchError,
)

__all__ = [
    "ExchangeConfig",
    "ScoringConfig",
    "ExchangeResult",
    "McleResult",
    "effective_sample_size",
    "split_rhat",
    "exchange_sample",
    "fisher_scoring",
]


@dataclass(frozen=True)
class ExchangeConfig:
    """Chain length, burn-in, thinning, seed.  A burn-in of None is resolved
    at construction to n_samples // 10, so ``burn_in`` always holds the
    number of steps the chain discards.  ``n_samples``, ``burn_in`` and
    ``thin`` are integers >= 1, 0 and 1 (else ParameterDomainError)."""

    n_samples: int = 10_000
    burn_in: int | None = None
    thin: int = 1
    seed: int | None = None

    def __post_init__(self):
        _check_count("n_samples", self.n_samples)
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n_samples // 10)
        _check_count("burn_in", self.burn_in, least=0)
        _check_count("thin", self.thin)


@dataclass(frozen=True)
class ScoringConfig:
    """Fisher-scoring stopping rule: at most ``max_iters`` iterations, or
    convergence once ||H_obs - mu|| < grad_tol * (1 + ||H_obs||).
    ``max_iters`` must be an integer >= 1 and ``grad_tol`` a real finite and
    > 0, or construction raises :class:`ParameterDomainError`.  The step
    damping and the covariance ridge are fixed; see :func:`fisher_scoring`."""

    max_iters: int = 30
    grad_tol: float = 0.01

    def __post_init__(self):
        _check_count("max_iters", self.max_iters)
        _check_positive("grad_tol", self.grad_tol)


def _autocovariance(xc: np.ndarray, size: int, lags: int) -> np.ndarray:
    """Unnormalized autocovariances of the centred column ``xc`` at lags 0
    .. ``lags`` - 1, from one zero-padded FFT of ``size`` points (the power
    spectrum formed as re^2 + im^2).  A lag t is free of circular
    wrap-around when t <= size - len(xc)."""
    f = np.fft.rfft(xc, n=size, axis=0)
    return np.fft.irfft(f.real**2 + f.imag**2, n=size, axis=0)[:lags]


def _initial_monotone_tau(acov: np.ndarray) -> tuple[float, bool]:
    """Geyer's tau = -1 + 2 * (sum of the non-increasing pair sums) from the
    autocovariances of one column at lags 0 .. 2m - 1, and whether a pair
    sum rho_2i + rho_2i+1 that is not positive ended the sequence within
    them."""
    pairs = (acov / acov[:1]).reshape(-1, 2).sum(axis=1)  # no lags: no pairs
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    return -1.0 + 2.0 * np.minimum.accumulate(pairs).sum(), bool(stop.size)


def effective_sample_size(samples) -> np.ndarray:
    """Effective sample size of each column of a chain, shape (L, K) or (L,)
    -> (K,), by Geyer's initial monotone sequence estimator (Statist. Sci.
    7:473, 1992).

    The autocorrelations rho_t come from FFTs of the centred columns, each
    transformed alone after scaling by the power of two that puts its
    largest magnitude in [0.5, 1): exact, so rho_t keeps its bits, and the
    transform's squares stay in range at any scale.  Their adjacent pair
    sums rho_2m + rho_2m+1 are kept up to the first one that is not
    positive and made non-increasing; with tau = -1 + 2 * (their sum), the
    effective size is L / tau.  As in Stan, tau is floored at 1 / log10(L), which
    keeps an antithetic chain (negative rho_1, as in a chain that alternates
    between two states) finite and positive.  A constant column, or a chain
    of fewer than 4 samples, gives nan.

    The sequence reads only the lags before its first non-positive pair
    sum, usually a small share of the L lags.  So the autocovariance first
    comes from a short transform: its length is the smallest 2^a or 3 * 2^a
    that is at least L + L // 8 (12 288 at L = 10 000), which gives every
    lag below size - L + 1 exactly, with no circular wrap-around.  A column
    whose pair sums stay positive through that window is recomputed from
    the full transform, at least 2L - 1 points rounded up to a multiple of
    2^(bits - 4) (20 480 at L = 10 000), which gives every lag.  The
    estimator is the same either way; a column resolved in the window reads
    the same lags from a shorter transform, so its value can differ from
    the full transform's in the last bits.
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    L, K = x.shape
    out = np.full(K, np.nan)
    if L < 4:
        return out
    means = x.mean(axis=0)  # one call: a column's own mean rounds differently
    floor = 1.0 / math.log10(L)
    # the smallest 2^a or 3 * 2^a that is at least L + L // 8
    short = min(n << ((L + L // 8 - 1) // n).bit_length() for n in (1, 3))
    # rounded up to a multiple of 2^(bits - 4): small factors (fast), and
    # padding by at most 1/8, not the up to 2x of the next power of two
    step = 1 << max(0, (2 * L - 1).bit_length() - 4)
    full = -(-(2 * L - 1) // step) * step
    for k in range(K):
        column = x[:, k]
        if column.min() == column.max():
            continue
        xc = column - means[k]
        np.ldexp(xc, -np.frexp(np.abs(xc).max())[1], out=xc)
        tau, stopped = _initial_monotone_tau(_autocovariance(xc, short, min(short - L + 1, L) // 2 * 2))
        if not stopped:
            tau = _initial_monotone_tau(_autocovariance(xc, full, L - L % 2))[0]
        out[k] = L / max(tau, floor)
    return out


def split_rhat(samples) -> np.ndarray:
    """Split potential scale reduction of each column of a chain, shape
    (L, K) or (L,) -> (K,): the Gelman-Rubin statistic (Statist. Sci. 7:457,
    1992) of the chain's first and second halves (the middle sample of an
    odd-length chain is dropped).  Near 1 when the halves agree; a chain
    still drifting reads above 1.  A column constant within both halves,
    or a chain of fewer than 4 samples, gives nan (inf when the two
    constants differ).

    Each column is first scaled by the power of two that puts its largest
    magnitude in [0.5, 1), as in :func:`effective_sample_size`: exact, so
    R-hat keeps its bits on a chain in the normal range, and the squares
    of a chain at a subnormal or huge scale neither underflow nor overflow.
    """
    x = np.asarray(samples, dtype=float).reshape(len(samples), -1)
    h = len(x) // 2
    if h < 2:
        return np.full(x.shape[1], np.nan)
    halves = np.stack([x[:h], x[len(x) - h :]])
    top = np.maximum(halves.max(axis=(0, 1)), -halves.min(axis=(0, 1)))
    np.ldexp(halves, -np.frexp(top)[1], out=halves)
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
    """Fisher-scoring summary.  The traces hold one entry per iteration, so
    ``iterations`` is their length; ``acceptance_trace``, ``ess_trace`` and
    ``split_rhat_trace`` give the chain's acceptance rate and per-statistic
    diagnostics (nan when the moments came from ``moment_fn``), and
    ``final_acceptance_rate`` is the last rate.
    ``n_steps`` counts the MH steps of all chains.  ``stages`` gives seconds
    spent obtaining the moments (``sampler_s``: the chains, or
    ``moment_fn``), computing the chain diagnostics (``diagnostics_s``) and
    in the scoring updates (``solve_s``: moments, covariance and the linear
    solve); the rest of ``wall_time_s`` is set-up.  `mimm fit` writes
    :meth:`to_dict` and, per iteration, :meth:`diagnostics`."""

    theta: np.ndarray
    score_norm_trace: tuple[float, ...]
    theta_trace: tuple[tuple[float, ...], ...]
    acceptance_trace: tuple[float, ...]
    converged: bool
    wall_time_s: float
    n_steps: int = 0
    stages: dict[str, float] | None = None
    ess_trace: tuple[tuple[float, ...], ...] = ()
    split_rhat_trace: tuple[tuple[float, ...], ...] = ()

    @property
    def iterations(self) -> int:
        return len(self.score_norm_trace)

    @property
    def final_acceptance_rate(self) -> float:
        return self.acceptance_trace[-1]

    def to_dict(self) -> dict:
        """The ``fit`` record's estimator keys."""
        return {
            "iterations": self.iterations,
            "acceptance_rate": self.final_acceptance_rate,
            "converged": self.converged,
            "score_norm_trace": list(self.score_norm_trace),
            "n_steps": self.n_steps,
            "stages": self.stages,
        }

    def diagnostics(self) -> tuple[list[str], list[list]]:
        """A header and one row per scoring iteration: the iteration from 1,
        theta at its start, the score norm, the chain's acceptance rate and
        its worst statistic, the smallest ESS and largest split-R-hat (nan
        if any is)."""
        head = ["iter", *(f"theta_{k}" for k in range(len(self.theta)))]
        head += ["score_norm", "acceptance_rate", "ess", "split_rhat"]
        traces = zip(self.theta_trace, self.score_norm_trace, self.acceptance_trace, self.ess_trace, self.split_rhat_trace)
        return head, [
            [i, *theta, norm, rate, float(np.min(ess)), float(np.max(rhat))]
            for i, (theta, norm, rate, ess, rhat) in enumerate(traces, start=1)
        ]


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
_PROPOSAL_BLOCK = 4096  # divides _RECOMPUTE_EVERY: refreshes fall on block ends
_SUM_CHUNK = 256  # terms per line of a generated sum: the compiler recurses per +


def _chain_columns(spec: DependenceSpec, data: np.ndarray) -> list[list[float]]:
    """The chain's per-position column lists of the ordering ``data``: one
    list per power column of the spec's ``MonomialTable``."""
    powers = spec._table.powers(data)
    return [powers[:, q].tolist() for q in range(powers.shape[1])]


def _at(side: str, off: int) -> str:
    """Source text of the position ``side`` + ``off``."""
    return side if off == 0 else f"{side} {'-' if off < 0 else '+'} {abs(off)}"


def _read_name(side: str, q: int, off: int) -> str:
    """Local holding P_q at position s1 + off (side "a") or s2 + off ("b")."""
    return f"{side}{q}" if off == 0 else f"{side}{q}_{'m' if off < 0 else 'p'}{abs(off)}"


def _far_pair_lines(table) -> list[str]:
    """Straight-line source of the factored far-pair step (s2 - s1 > d) on
    the power columns ``P_q`` of the current ordering: ``f_j`` is the change
    of own product j, Phi_j(x_s2) - Phi_j(x_s1), and ``v_g`` group g's term
    (S_g(s1) - S_g(s2)) * f_j, the neighbour sums S_g read at s1 + offset
    and s2 + offset.  Each entry the step uses is read once into a local
    (``a{q}`` is P_q[s1], ``b{q}_m1`` is P_q[s2 - 1], ...).  The products and
    sums run in plan order.  The reverse swap negates ``f_j`` exactly and
    leaves ``S_g`` alone, so its terms are the exact negatives of the
    forward ones.  Only the plan's integers (power columns and offsets)
    enter the text."""
    reads: dict[str, str] = {}  # local name -> its read, in order of first use

    def read(side, q, off):
        name = _read_name(side, q, off)
        reads.setdefault(name, f"P_{q}[{_at('s1' if side == 'a' else 's2', off)}]")
        return name

    def own(side, qs):
        return " * ".join(read(side, q, 0) for q in qs)

    def neighbour_sum(side, slots):
        return " + ".join(" * ".join(read(side, q, off) for off, q in slot) for slot in slots)

    lines = [f"f_{j} = {own('b', qs)} - {own('a', qs)}" for j, qs in enumerate(table.owns)]
    for g, (_, j, slots) in enumerate(table.groups):
        lines.append(f"v_{g} = (({neighbour_sum('a', slots)}) - ({neighbour_sum('b', slots)})) * f_{j}")
    return [f"{name} = {value}" for name, value in reads.items()] + lines


def _near_pair_lines(spec: DependenceSpec, gap: int) -> list[str]:
    """Straight-line source of the direct swap delta ``n_k`` of a near pair
    with s2 - s1 = ``gap`` <= d: :func:`core._swap_delta_rows` unrolled, so
    it gives the same floats.  Component c of the row at s1 + off is read
    from its value column, ``P_q[s1 + off]`` with q = ``values[c]`` of the
    spec's ``MonomialTable``, each once into a local (``a{q}_m1`` at
    s1 - 1, ``a{q}`` at s1, ``a{q}_p1`` at s1 + 1, ...).  Windows t = s1 ..
    s2 + d in order, each term's products before and after the swap
    started from 1.0 and taken factor by factor (the value, or the value
    ``** e`` for an exponent e != 1, as the rows path does), and n_k = 0.0
    plus after - before window by window."""
    d, values = spec.order, spec._table.values
    reads: dict[str, str] = {}  # local name -> its read, in order of first use

    def factor(rel, comp, exp):
        q = values[comp]
        name = _read_name("a", q, rel)
        reads.setdefault(name, f"P_{q}[{'s2' if rel == gap else _at('s1', rel)}]")
        return name if exp == 1 else f"{name} ** {exp}"

    def product(t, factors, swapped):
        rels = [(t - lag, comp, exp) for lag, comp, exp in factors]
        if swapped:  # position s1 holds x_s2 and s2 holds x_s1
            rels = [({0: gap, gap: 0}.get(rel, rel), comp, exp) for rel, comp, exp in rels]
        return " * ".join(["1.0", *(factor(*f) for f in rels)])

    lines = []
    for k, term in enumerate(spec.terms):
        changes = [
            f"({product(t, term.factors, True)} - {product(t, term.factors, False)})" for t in range(gap + d + 1)
        ]
        lines.extend(_sum_lines(f"n_{k}", ["0.0", *changes]))
    return [f"{name} = {value}" for name, value in reads.items()] + lines


def _sum_lines(name: str, terms: list[str]) -> list[str]:
    """Lines that set ``name`` to the left-to-right sum of ``terms`` (0.0
    when empty), at most ``_SUM_CHUNK`` terms per line."""
    if not terms:
        return [f"{name} = 0.0"]
    lines = [f"{name} = {' + '.join(terms[:_SUM_CHUNK])}"]
    for lo in range(_SUM_CHUNK, len(terms), _SUM_CHUNK):
        lines.append(f"{name} = {' + '.join([name, *terms[lo : lo + _SUM_CHUNK]])}")
    return lines


def _statistic_path(table: np.ndarray, start) -> tuple[np.ndarray, int]:
    """The running statistic after each step of a block, (B, K), and the
    number of accepted moves, from the K x steps array ``table`` the kernel
    wrote (nan where no move wrote) and the statistic ``start`` before the
    block.

    Every accepted move writes at least one term's entry, and never nan (a
    nan change makes the log-ratio nan, which rejects), so the accepted
    moves are the steps with a written entry.  The unwritten entries are
    set to -0.0 in place, which leaves every float as it is (x + -0.0 ==
    x).  Term k runs one cumulative sum from ``start[k]`` through its
    entries, step by step."""
    B = table.shape[1]
    unwritten = np.isnan(table)
    accepted = B - int(np.count_nonzero(unwritten.all(axis=0)))
    np.putmask(table, unwritten, -0.0)
    seq = np.empty((1 + B, table.shape[0]))
    seq[0] = start
    seq[1:] = table.T
    return np.add.accumulate(seq, axis=0)[1:], accepted


def _kernel_source(spec: DependenceSpec) -> str:
    """Source of the compiled ``segment`` of ``spec``."""
    table, d, K = spec._table, spec.order, spec.n_terms
    names = [f"P_{q}" for q in range(len(table.exps))]
    ths = ", ".join(f"TH_{k}" for k in range(K)) + ","
    buffers = ", ".join(f"D_{k}" for k in range(K)) + ","
    # an accepted far move writes each term with groups the sum of its
    # groups' terms in plan order; a spec whose terms each touch one lag has
    # no group: its far moves change nothing and mark D_0 with -0.0
    groups_of = [[f"v_{g}" for g, (k, _, _) in enumerate(table.groups) if k == t] for t in range(K)]
    far_writes = [line for k, vs in enumerate(groups_of) if vs for line in _sum_lines(f"D_{k}[j]", vs)]
    far_writes = far_writes or ["D_0[j] = -0.0"]
    far_logr = _sum_lines("logr", [f"TH_{k} * v_{g}" for g, (k, _, _) in enumerate(table.groups)])
    near_logr = _sum_lines("logr", [f"TH_{k} * n_{k}" for k in range(K)])
    # the far step holds P_q[s1] and P_q[s2] of each own power column in locals
    held = {f"P_{q}": (_read_name("a", q, 0), _read_name("b", q, 0)) for qs in table.owns for q in qs}

    def accept(held):
        """An accepted move: swap two entries of every column list, writing
        back the locals ``held`` where the step read them."""
        swaps = []
        for name in names:
            at_s1, at_s2 = held.get(name, (f"{name}[s1]", f"{name}[s2]"))
            swaps.append(f"{name}[s1], {name}[s2] = {at_s2}, {at_s1}")
        return swaps

    lines = [
        "def segment(columns, th, proposals, deltas):",
        f"    {', '.join(names)}, = columns",
        f"    {ths} = th",
        f"    {buffers} = deltas",
        "    for j, s1, s2, logu in proposals:",
        f"        if s2 - s1 > {d}:",
        *(f"            {line}" for line in _far_pair_lines(table) + far_logr),
        "            if logu <= logr:",
        *(f"                {line}" for line in far_writes),
        *(f"                {line}" for line in accept(held)),
    ]
    for gap in range(1, d + 1):
        lines.append(f"        elif s2 - s1 == {gap}:")
        lines.extend(f"            {line}" for line in _near_pair_lines(spec, gap) + near_logr)
        lines.append("            if logu <= logr:")
        lines.extend(f"                D_{k}[j] = n_{k}" for k in range(K))
        lines.extend(f"                {line}" for line in accept({}))
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=64)
def _exchange_kernel(spec: DependenceSpec) -> Callable:
    """The exchange step of ``spec`` as straight-line Python, compiled once
    per spec (as :mod:`dataclasses` generates methods): one function,
    ``segment(columns, th, proposals, deltas)``, which runs the steps
    ``(j, s1, s2, logu)`` of one decoded proposal block, ``j`` the step's
    index within the block.

    The ordering lives only in the column lists, one per power column
    ``P_q`` (:func:`_chain_columns`); the table's value columns
    (``MonomialTable.values``) hold the data themselves.  An accepted move
    exchanges two entries of every column list.  The kernel keeps no
    statistic and no count: it writes each accepted move's statistic
    change at index ``j`` of ``deltas``, one writable float buffer ``D_k``
    per term, each a ``memoryview`` of one row of a nan-filled K x steps
    array, and :func:`_statistic_path` sums that array and counts the
    accepted moves afterwards.

    A far pair (s2 - s1 > d) runs :func:`_far_pair_lines`: it reads
    ``P_q[s1 + off]`` and ``P_q[s2 + off]`` directly, its log-ratio is the
    theta-weighted sum of the group terms ``v_g`` and an accepted move
    writes, for each term with groups, the sum of its groups' ``v_g`` in
    plan order (a spec with no group writes ``D_0[j] = -0.0``).  A near
    pair runs :func:`_near_pair_lines` for its gap,
    :func:`core._swap_delta_rows` unrolled on the value columns
    ``P_q[s1 + off]``, and an accepted move writes each term's change
    ``n_k``.  The source holds only integers of the spec's
    ``MonomialTable`` plan (power columns, offsets, term indices,
    exponents) and its order; theta arrives as an argument.
    """
    source = _kernel_source(spec)
    namespace: dict = {}
    exec(compile(source, f"<mimm exchange kernel K={spec.n_terms}>", "exec"), {}, namespace)
    return namespace["segment"]


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

    Each block of ``_PROPOSAL_BLOCK`` proposals is drawn in numpy: the
    pairs by ``core._uniform_pairs`` (the draw online SGD makes), then
    log u.  The block runs in the spec's compiled kernel
    (:func:`_exchange_kernel`), which iterates ``memoryview``s of those
    three arrays, on the column lists of the current ordering, and writes
    each accepted move's statistic change into a K x steps array;
    :func:`_statistic_path` turns it into the statistic after each step of
    the block, by one cumulative sum per term from the statistic before
    the block.  Every ``_RECOMPUTE_EVERY`` steps, at a
    block's end, the statistic is recomputed from the ordering that the
    value columns hold and replaces the block's last row.  The rows of the
    recorded steps are copied out, so no array spans the whole chain.
    """
    theta = _validate_theta(spec, theta)
    d, hi = _interior_bounds(spec, series)
    if rng is None:
        rng = np.random.default_rng(config.seed)

    segment = _exchange_kernel(spec)
    table = np.empty((spec.n_terms, _PROPOSAL_BLOCK))
    deltas = [memoryview(row) for row in table]  # the kernel writes the rows of table
    th = [float(v) for v in theta]
    columns = _chain_columns(spec, series.data)
    values = [columns[q] for q in spec._table.values]  # the current ordering, by component
    current = total_statistic(spec, series)

    burn, thin = config.burn_in, config.thin
    total_steps = burn + config.n_samples * thin
    stats = np.empty((config.n_samples, spec.n_terms))
    accepted = 0
    for first in range(0, total_steps, _PROPOSAL_BLOCK):
        s1, s2 = _uniform_pairs(rng, d, hi, _PROPOSAL_BLOCK)
        logu = np.log(rng.random(size=_PROPOSAL_BLOCK))
        end = min(first + _PROPOSAL_BLOCK, total_steps)
        steps = (memoryview(v[: end - first]) for v in (s1, s2, logu))  # read as Python ints and floats
        table.fill(math.nan)
        segment(columns, th, zip(range(end - first), *steps), deltas)
        path, block_accepted = _statistic_path(table[:, : end - first], current)
        accepted += block_accepted
        if end % _RECOMPUTE_EVERY == 0:
            path[-1] = total_statistic(spec, TimeSeries(np.column_stack(values), kinds=series.kinds))
        current = path[-1]
        # the recorded steps burn + thin * i in (first, end], at rows step - first - 1
        done, upto = (max(0, (step - burn) // thin) for step in (first, end))
        stats[done:upto] = path[burn + thin * (done + 1) - first - 1 :: thin][: upto - done]

    return ExchangeResult(stats=stats, acceptance_rate=accepted / total_steps, n_steps=total_steps)


def fisher_scoring(
    spec: DependenceSpec,
    series: TimeSeries,
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
    its model expectation.  The ridge is 1e-8 * tr(cov) / K, at least
    1e-12; a solve that fails or gives a step that is not finite raises
    :class:`IllConditionedError`.  The damping starts at 1; it halves, down
    to 1/16, whenever the score norm increased relative to the previous
    iteration, and otherwise grows by 1.5x back up to 1.

    Starts from theta = 0 and stops when ||H_obs - mu|| < grad_tol *
    (1 + ||H_obs||) or at max_iters.  An observed statistic whose square
    overflows (``core._check_finite_statistics``) raises
    :class:`ParameterDomainError` before any chain runs.  When the first
    iteration's score and covariance both vanish to rounding (a norm of at
    most 1e-8 ||H_obs||, a trace of at most its square), the statistic may
    never move; the pair fitters' rule (``core._check_identified``) then
    scans the swap deltas of a bounded design once, and if all are zero
    raises :class:`InsufficientDataError`, whichever gave the moments.  The
    design is every interior pair when there are fewer than 2 x 16384 of
    them, and otherwise every s-th pair of the all-pairs design, s = C(m,
    2) // 16384 for m interior positions, so at most 2 x 16384 pairs; a
    constant series of n = 1e5 is refused at that cost, not C(m, 2)'s.  At
    theta = 0 a chain accepts every proposal, so on other data the
    statistic moves and the scan never runs.
    """
    start = time.perf_counter()
    K = spec.n_terms
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        h_obs = total_statistic(spec, series)
    _check_finite_statistics(spec, h_obs, "observed statistics")
    theta = np.zeros(K)
    rng = np.random.default_rng(exchange_config.seed)

    score_norms: list[float] = []
    thetas: list[tuple[float, ...]] = []
    acc_rates: list[float] = []
    ess_trace: list[tuple[float, ...]] = []
    rhat_trace: list[tuple[float, ...]] = []
    converged = False
    damping = 1.0
    prev_norm = math.inf
    h_norm = float(np.linalg.norm(h_obs))
    h_scale = 1.0 + h_norm
    n_steps = 0
    stages = {"sampler_s": 0.0, "diagnostics_s": 0.0, "solve_s": 0.0}

    for _ in range(scoring_config.max_iters):
        tick = time.perf_counter()
        if moment_fn is not None:
            mu, cov = moment_fn(theta)
            sampled = diagnosed = time.perf_counter()
            mu = np.asarray(mu, dtype=float)
            cov = np.atleast_2d(np.asarray(cov, dtype=float))
            acc = math.nan
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
        # a mean of equal statistics can round off by a few ulps, so not exactly 0
        if not score_norms and snorm <= 1e-8 * h_norm and np.trace(cov) <= (1e-8 * h_norm) ** 2:
            lo, hi = _interior_bounds(spec, series)
            stride = max(1, (hi - lo) * (hi - lo - 1) // 2 // _SWAP_BLOCK)
            _check_identified(_all_pairs_blocks(spec, series, _SWAP_BLOCK, stride))
        score_norms.append(snorm)
        thetas.append(tuple(float(v) for v in theta))
        acc_rates.append(acc)

        if snorm < scoring_config.grad_tol * h_scale:
            converged = True
            stages["solve_s"] += time.perf_counter() - diagnosed
            break

        ridge = max(1e-8 * float(np.trace(cov)) / K, 1e-12)
        try:
            step = np.linalg.solve(cov + ridge * np.eye(K), score)
        except np.linalg.LinAlgError:
            step = None
        if step is None or not np.all(np.isfinite(step)):
            raise IllConditionedError(
                f"moment covariance not invertible (trace {np.trace(cov):.3g}, "
                f"ridge {ridge:.3g}); the chain may be degenerate"
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

"""The invariant verification gate behind ``mimm verify``.

Each check recomputes one property the paper's estimators rely on (the
parameter transforms and their round trips, the Fisher information's
orthogonal blocks, the Pythagorean identity of the divergence rates, the
permutation-invariant remainder of the conditional likelihood, and the swap
deltas, samplers and Newton passes that evaluate them) from fixed inputs
and seeds, and reports the worst deviation against a fixed tolerance.

This module is the one implementation of these invariants: the acceptance
criteria and the unit tests run its checks rather than copies of them, and
pin each result's tolerance in one table.

Every ``_check_*`` function is a generator of its :class:`CheckResult`
values, and :func:`run_checks` runs the tuple ``_CHECKS`` of them in the
report's order.  :func:`_below` builds each result whose rule is measured <
tolerance, so its tolerance is written once; any other rule (exact, ``>=``,
``== 0``, compound) is written beside its own :class:`CheckResult`.

The checks call the library through its modules (``gaussian.mininfo_to_var1``,
``ple._newton_pass``, ...), so a patched module attribute is what they run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import core, gaussian, mcle, oracle, ple

@dataclass
class CheckResult:
    """One check: its measured deviation against its tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


def _below(name, measured, tolerance, detail=""):
    """The result of a check that passes when ``measured < tolerance``."""
    return CheckResult(name, measured < tolerance, measured, tolerance, detail)


def _check_transform_anchors():
    worst = 0.0
    mi = gaussian.ar1_to_mininfo(gaussian.ClassicalARParams([0.5], 0.5))
    worst = max(worst, abs(mi.theta[0] - 1.0))
    mi2 = gaussian.ar2_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3], 0.5))
    worst = max(worst, abs(mi2.theta[0] - 0.7), abs(mi2.theta[1] - 0.6))
    mi3 = gaussian.ard_to_mininfo(gaussian.ClassicalARParams([0.5, 0.3, 0.1], 0.5))
    worst = max(worst, float(np.abs(mi3.theta - [0.64, 0.5, 0.2]).max()))
    A = np.array([[0.5, 0.1], [0.1, 0.5]])
    miv = gaussian.var1_to_mininfo(gaussian.ClassicalVARParams(A=A[None], Sigma=0.5 * np.eye(2)))
    worst = max(worst, float(np.abs(miv.Theta - [[1.0, 0.2], [0.2, 1.0]]).max()))
    # the AR(2) and AR(3) anchors may land one rounding off their decimal
    # literals; the AR(1) (theta and tau2) and VAR(1) anchors must equal
    # theirs bit for bit
    exact = (
        mi.theta[0] == 1.0 and mi.tau2 == 2.0 / 3.0
        and np.array_equal(miv.Theta, [[1.0, 0.2], [0.2, 1.0]])
    )
    yield CheckResult("transform_anchor_values", exact and worst < 1e-15, worst, 1e-15)


def _check_roundtrips():
    rng = np.random.default_rng(20240501)
    worst1 = worst2 = worstv = worstr = 0.0
    for _ in range(100):
        phi = rng.uniform(-0.95, 0.95)
        s2 = rng.uniform(0.05, 4.0)
        p = gaussian.ClassicalARParams([phi], s2)
        b = gaussian.mininfo_to_ar1(gaussian.ar1_to_mininfo(p))
        worst1 = max(worst1, abs(b.phi[0] - phi), abs(b.sigma2 - s2))
    for _ in range(100):
        while True:
            f1 = rng.uniform(-1.9, 1.9)
            f2 = rng.uniform(-0.95, 0.95)
            if 1 + f2 > 0.02 and 1 - f1 - f2 > 0.02 and 1 + f1 - f2 > 0.02:
                break
        s2 = rng.uniform(0.05, 4.0)
        p = gaussian.ClassicalARParams([f1, f2], s2)
        b = gaussian.mininfo_to_ar(gaussian.ar2_to_mininfo(p))
        worst2 = max(worst2, float(np.abs(b.phi - [f1, f2]).max()), abs(b.sigma2 - s2))
    for _ in range(100):
        pdim = int(rng.integers(2, 4))
        W = rng.standard_normal((pdim, pdim))
        A = W * (rng.uniform(0.2, 0.92) / max(1e-12, np.max(np.abs(np.linalg.eigvals(W)))))
        Z = rng.standard_normal((pdim, pdim))
        Sig = Z @ Z.T / pdim + 0.1 * np.eye(pdim)
        p = gaussian.ClassicalVARParams(A=A[None], Sigma=Sig)
        mi = gaussian.var1_to_mininfo(p)
        b = gaussian.mininfo_to_var1(mi)
        worstv = max(worstv, float(np.abs(b.A[0] - A).max()), float(np.abs(b.Sigma - Sig).max()))
        resid = np.linalg.norm(mi.B - b.A[0] @ mi.B @ b.A[0].T - b.Sigma, "fro")
        worstr = max(worstr, resid / np.linalg.norm(mi.B, "fro"))
    worstd = 0.0
    for _ in range(30):
        # AR(d), d = 3-8, whose characteristic roots have modulus in [1.05, 5]
        d = int(rng.integers(3, 9))
        radius = 1.0 / rng.uniform(1.05, 5.0, size=(d + 1) // 2)
        pairs = radius[: d // 2] * np.exp(1j * rng.uniform(0.0, np.pi, size=d // 2))
        poles = np.concatenate([pairs, pairs.conj(), radius[d // 2 :] * rng.choice([-1.0, 1.0])])
        p = gaussian.ClassicalARParams(-np.poly(poles).real[1:], rng.uniform(0.05, 4.0))
        b = gaussian.mininfo_to_ar(gaussian.ard_to_mininfo(p))
        worstd = max(worstd, float(np.abs(b.phi - p.phi).max()), abs(b.sigma2 - p.sigma2))
    yield _below("roundtrip_ar1", worst1, 1e-10)
    yield _below("roundtrip_ar2", worst2, 1e-10)
    yield _below("roundtrip_ard", worstd, 1e-9, "d = 3-8")
    yield _below("roundtrip_var1", worstv, 1e-10)
    yield _below("riccati_residual", worstr, 1e-8)


def _check_fisher():
    worst = 0.0
    worst_off = 0.0
    for th in (-2.0, -1.0, 0.0, 1.0, 2.0):
        for t2 in (0.25, 2.0 / 3.0, 1.0, 4.0):
            closed = gaussian.ar1_fisher_info(th, t2)
            numeric = oracle.ar1_fisher_info_numeric(th, t2)
            worst = max(worst, float(np.abs(closed - numeric).max()))
            worst_off = max(worst_off, abs(numeric[0, 1]), abs(closed[0, 1]))
    yield _below("fisher_info_quadrature", worst, 1e-6)
    yield _below("fisher_orthogonality", worst_off, 1e-6)


def _check_pythagorean():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(60):
        th = rng.uniform(-2, 2)
        t2 = rng.uniform(0.2, 3.0)
        phw = rng.uniform(-0.95, 0.95)
        decay = abs(th) + float(np.exp(rng.uniform(-1, 2)))
        star = gaussian.mininfo_to_ar1(gaussian.MinInfoARParams([th], t2))
        wstar = gaussian.GaussianKernel([star.phi], [[star.sigma2]])
        w = gaussian.GaussianKernel([[phw]], [[t2 * (1 - phw**2)]])
        v = gaussian.DependenceKernel(th, decay).as_gaussian()
        gap = (
            gaussian.divergence_rate(w, wstar)
            + gaussian.divergence_rate(wstar, v)
            - gaussian.divergence_rate(w, v)
        )
        worst = max(worst, abs(gap))
    yield _below("pythagorean_identity", worst, 1e-8)


def _check_divergence_nonneg():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        phi_p, phi_q = rng.uniform(-0.9, 0.9, size=2)
        s_p, s_q = rng.uniform(0.1, 2.0, size=2)
        p = gaussian.GaussianKernel([[phi_p]], [[s_p]])
        q = gaussian.GaussianKernel([[phi_q]], [[s_q]])
        worst = min(worst, gaussian.divergence_rate(p, q))
    self_div = gaussian.divergence_rate(p, p)
    ok = worst >= -1e-12 and abs(self_div) < 1e-12
    yield CheckResult("divergence_nonnegative", ok, min(worst, -abs(self_div)), -1e-12)


def _check_swap_recompute():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(90):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2 * d + 2, 2 * d + 14))
        data = rng.standard_normal(n)
        series = core.TimeSeries(data)
        spec = core.ar_spec(d)
        interior = list(range(d, n - d))
        s1, s2 = sorted(rng.choice(interior, size=2, replace=False))
        delta = core.swap_delta(spec, series, int(s1), int(s2))
        order = np.arange(n)
        order[[s1, s2]] = order[[s2, s1]]
        brute = core.total_statistic(spec, core.TimeSeries(data[order])) - core.total_statistic(
            spec, series
        )
        worst = max(worst, float(np.abs(delta - brute).max()))
    yield _below("swap_delta_recompute", worst, 1e-12)


def _check_swap_deltas_batch():
    """Batched swap deltas (factored far pairs, direct near pairs) against
    the scalar window re-evaluation on a binary/real kron spec."""
    rng = np.random.default_rng(4)
    spec = core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
    n = 40
    data = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    d = spec.order
    s1 = np.arange(d, n - d - 1)
    gaps = rng.integers(1, 2 * d + 3, size=len(s1))  # near (<= d) and far
    s2 = np.minimum(s1 + gaps, n - d - 1)
    scalar = np.array([core.swap_delta(spec, series, int(a), int(b)) for a, b in zip(s1, s2)])
    worst = 0.0
    # every pair and a sparse pair list, both over the same cached tables
    for rows in (slice(None), slice(None, None, 7)):
        batch = core.swap_deltas(spec, series, s1[rows], s2[rows])
        err = np.abs(batch - scalar[rows]) / (1.0 + np.abs(scalar[rows]))
        worst = max(worst, float(err.max()))
    yield _below("swap_deltas_batch", worst, 1e-12)


def _check_all_pairs_design():
    """The all-pairs design built by row tiles (``fit_naive``'s block
    builder) against the scalar window re-evaluation on a binary/real kron
    spec with d = 2, over more than three tiles and in two row ranges."""
    rng = np.random.default_rng(15)
    spec = core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)])
    d = spec.order
    n = 3 * core._PAIR_TILE_ROWS + 2 * d + 8
    data = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    series = core.TimeSeries(data, kinds=("binary", "real"))
    hi = n - d
    mid = d + core._PAIR_TILE_ROWS + 3
    design = np.concatenate(
        [core._all_pairs_deltas(spec, series, d, mid), core._all_pairs_deltas(spec, series, mid, hi - 1)]
    )
    pairs = [(a, b) for a in range(d, hi - 1) for b in range(a + 1, hi)]
    worst = 0.0
    for row, (a, b) in zip(design, pairs):
        scalar = core.swap_delta(spec, series, a, b)
        worst = max(worst, float((np.abs(row - scalar) / (1.0 + np.abs(scalar))).max()))
    ok = len(design) == len(pairs) and worst < 1e-12
    yield CheckResult("all_pairs_design", ok, worst, 1e-12)


def _exchange_step_cases(rng):
    """AR(2) on real data and a binary/real kron spec with d = 2, n = 40,
    each as the series of its rows under a random interior permutation."""
    n = 40
    mixed = np.column_stack([rng.integers(0, 2, size=n), rng.standard_normal(n)])
    cases = (
        (core.ar_spec(2), core.TimeSeries(rng.standard_normal(n))),
        (
            core.kron_spec(2, [(1, 1, 1), (2, 2, 1), (2, 1, 2)]),
            core.TimeSeries(mixed, kinds=("binary", "real")),
        ),
    )
    for spec, series in cases:
        d = spec.order
        order = np.concatenate([np.arange(d), d + rng.permutation(n - 2 * d), np.arange(n - d, n)])
        yield spec, core.TimeSeries(series.data[order], kinds=series.kinds)


def _exchange_step(spec, series, s1, s2) -> np.ndarray:
    """The statistic change of the move (s1, s2) on the ordering of
    ``series``, run by the chain's own compiled ``segment`` and statistic
    path: theta 0 and log u = -inf accept the move, and the path starts at
    -0.0, so it comes back as each term's entry bit for bit (-0.0 + x == x,
    and an unwritten entry adds -0.0)."""
    K = spec.n_terms
    table = np.full((K, 1), math.nan)
    deltas = [memoryview(row) for row in table]
    segment = mcle._exchange_kernel(spec)
    segment(mcle._chain_columns(spec, series.data), [0.0] * K, [(0, s1, s2, -math.inf)], deltas)
    path, _ = mcle._statistic_path(table, [-0.0] * K)
    return path[-1]


def _check_exchange_step_factored():
    """The exchange chain's compiled step (:func:`mcle._exchange_kernel`) on
    far pairs of a permuted ordering against the scalar window
    re-evaluation, on AR(2) and on a binary/real kron spec."""
    rng = np.random.default_rng(9)
    worst = 0.0
    for spec, series in _exchange_step_cases(rng):
        n, d = series.n, spec.order
        for _ in range(30):
            s1 = int(rng.integers(d, n - 2 * d - 1))
            s2 = int(rng.integers(s1 + d + 1, n - d))
            factored = _exchange_step(spec, series, s1, s2)
            scalar = core.swap_delta(spec, series, s1, s2)
            err = np.abs(factored - scalar) / (1.0 + np.abs(scalar))
            worst = max(worst, float(err.max()))
    yield _below("exchange_step_factored", worst, 1e-12)


def _check_exchange_step_near():
    """The exchange chain's compiled step on near pairs against the scalar
    window re-evaluation under a permuted ordering, for every gap 1 .. d on
    AR(2) and a binary/real kron spec.  It unrolls that path, so it must
    match bitwise: the value is the number of pairs that differ."""
    rng = np.random.default_rng(16)
    mismatches = 0
    for spec, series in _exchange_step_cases(rng):
        n, d = series.n, spec.order
        for gap in range(1, d + 1):
            for s1 in rng.choice(np.arange(d, n - d - gap), size=10, replace=False).tolist():
                scalar = core.swap_delta(spec, series, s1, s1 + gap)
                mismatches += _exchange_step(spec, series, s1, s1 + gap).tobytes() != scalar.tobytes()
    yield CheckResult("exchange_step_near", mismatches == 0, float(mismatches), 0.0)


def _check_multilinearity():
    rng = np.random.default_rng(5)
    spec = core.DependenceSpec(
        2,
        2,
        (
            core.MonomialTerm(((0, 0, 1), (1, 1, 2))),
            core.MonomialTerm(((0, 1, 1), (2, 0, 1))),
            core.MonomialTerm(((0, 0, 2), (1, 0, 1), (2, 1, 1))),
        ),
    )
    worst = 0.0
    for _ in range(40):
        win = rng.standard_normal((3, 2))
        c = float(np.exp(rng.uniform(-2.0, 2.0)))
        lag, comp = int(rng.integers(0, 3)), int(rng.integers(0, 2))
        scaled = win.copy()
        scaled[lag, comp] *= c
        base = spec.evaluate(win)
        new = spec.evaluate(scaled)
        for k, term in enumerate(spec.terms):
            exp = next((e for (l, cmp_, e) in term.factors if l == lag and cmp_ == comp), 0)
            worst = max(worst, abs(new[k] - base[k] * c**exp))
    yield _below("eval_multilinearity", worst, 1e-12)


def _check_reversal():
    rng = np.random.default_rng(6)
    spec = core.ar_spec(1)
    worst = 0.0
    for _ in range(20):
        data = rng.standard_normal(int(rng.integers(5, 40)))
        h_fwd = core.total_statistic(spec, core.TimeSeries(data))
        h_rev = core.total_statistic(spec, core.TimeSeries(data[::-1]))
        worst = max(worst, float(np.abs(h_fwd - h_rev).max()))
    yield _below("statistic_reversal_invariance", worst, 1e-12)


def _check_remainder_invariance():
    phi, s2 = 0.5, 0.5
    params = gaussian.ClassicalARParams([phi], s2)
    mi = gaussian.ar1_to_mininfo(params)
    series = gaussian.simulate_ar(params, 9, seed=13)
    base = series.data[:, 0]
    spec = core.ar_spec(1)

    def joint_logpdf(x):
        ll = -0.5 * (math.log(2 * math.pi * mi.tau2) + x[0] ** 2 / mi.tau2)
        for t in range(1, len(x)):
            ll += -0.5 * (math.log(2 * math.pi * s2) + (x[t] - phi * x[t - 1]) ** 2 / s2)
        return ll

    vals = []
    for perm in itertools.permutations(range(1, 8)):
        order = np.concatenate([[0], perm, [8]])
        x = base[order]
        h = core.total_statistic(spec, core.TimeSeries(x))
        vals.append(joint_logpdf(x) - mi.theta[0] * h[0])
    spread = float(np.max(vals) - np.min(vals))
    yield _below("permutation_invariant_remainder", spread, 1e-8)


def _ordering_law(seed):
    """Per theta in (-1, 0, 0.7, 2), on AR(1) data at n = 7 (120 orderings):
    the probability p_j of each ordering, the library's statistic H_j of it
    and the oracle's mean mu for the data.  p_0, of the observed ordering,
    is the oracle's; the law's exponential form gives the others,
    p_j = p_0 exp(theta (H_j - H_0))."""
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 7, seed=seed)
    orderings = [core.TimeSeries(series.data[[0, *perm, 6]]) for perm in itertools.permutations(range(1, 6))]
    H = np.array([core.total_statistic(spec, x) for x in orderings])  # H[0]: the observed ordering
    for th in (-1.0, 0.0, 0.7, 2.0):
        p = oracle.exact_conditional_likelihood(spec, series, [th]) * np.exp((H - H[0]) @ [th])
        mu, _ = oracle.enumeration_moments(spec, series, [th])
        yield p, H, mu


def _check_conditional_normalization():
    worst = max(abs(float(p.sum()) - 1.0) for p, _, _ in _ordering_law(5))
    yield _below("conditional_law_normalization", worst, 1e-12)


def _check_detailed_balance():
    rng = np.random.default_rng(8)
    spec = core.ar_spec(2)
    data = rng.standard_normal(20)
    series = core.TimeSeries(data)
    theta = rng.standard_normal(2)
    worst = 0.0
    for _ in range(20):
        s1, s2 = sorted(rng.choice(range(2, 18), size=2, replace=False))
        fwd = core.swap_delta(spec, series, int(s1), int(s2))
        order = np.arange(20)
        order[[s1, s2]] = order[[s2, s1]]
        rev = core.swap_delta(spec, core.TimeSeries(data[order]), int(s1), int(s2))
        # the normalizers cancel: a swap's log ratio is theta . delta
        worst = max(worst, abs(float(theta @ fwd) + float(theta @ rev)))
    yield CheckResult("detailed_balance_log_ratio", worst == 0.0, worst, 0.0)


def _check_zero_theta_acceptance():
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 60, seed=2)
    res = mcle.exchange_sample(
        spec, series, [0.0], mcle.ExchangeConfig(n_samples=3000, seed=4)
    )
    gap = abs(res.acceptance_rate - 1.0)
    yield CheckResult("zero_theta_acceptance", gap == 0.0, gap, 0.0)


def _check_score_zero_mean():
    worst = max(float(np.abs(p @ (H - mu)).max()) for p, H, mu in _ordering_law(19))
    yield _below("score_zero_mean_at_truth", worst, 1e-12)


def _check_enumeration_equivalence():
    """Three maximizers of the exact conditional likelihood on AR(1) data
    at n = 8, seeds 5, 6 and 19: Fisher scoring on the enumerated moments,
    the oracle's :func:`oracle.exact_cle`, and the argmax of the enumerated
    log-CLE over a grid of step 1e-3 on [-10, 10].  The value is their
    largest spread; every scoring fit must converge."""
    spec = core.ar_spec(1)
    grid = np.arange(-10.0, 10.0001, 1e-3)
    worst, converged = 0.0, True
    for seed in (5, 6, 19):
        series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 8, seed=seed)
        stats = oracle.permutation_statistics(spec, series)
        fit = mcle.fisher_scoring(
            spec,
            series,
            scoring_config=mcle.ScoringConfig(max_iters=200, grad_tol=1e-9),
            moment_fn=lambda th: oracle.enumeration_moments(spec, series, th, stats=stats),
        )
        h = core.total_statistic(spec, series)[0]
        # about 1000 grid points at a time, so no 20001 x 720 array is held
        log_cle = np.concatenate(
            [g * h - oracle._logsumexp(np.outer(g, stats[:, 0])) for g in np.array_split(grid, 20)]
        )
        estimates = [fit.theta[0], oracle.exact_cle(spec, series)[0], grid[np.argmax(log_cle)]]
        worst = max(worst, float(np.ptp(estimates)))
        converged = converged and fit.converged
    yield CheckResult("enumeration_equivalence", converged and worst < 1e-3, worst, 1e-3)


def _check_logpl_zero():
    rng = np.random.default_rng(10)
    spec = core.ar_spec(1)
    series = core.TimeSeries(rng.standard_normal(40))
    s1, s2 = np.array([(a, b) for a in range(1, 6) for b in range(a + 1, 10)]).T
    pairs = -core.swap_deltas(spec, series, s1, s2)
    value = ple.log_pl(np.zeros(1), pairs)
    gap = abs(value - len(pairs) * math.log(0.5))
    yield _below("logpl_zero_value", gap, 1e-12)


def _check_logpl_gradient():
    """Central differences of log_pl against the gradient of the Newton
    pass the fitters use, relative to the central difference."""
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 3))
    theta = rng.standard_normal(3)
    grad, _ = ple._newton_pass(lambda: (X,), theta)
    worst = 0.0
    for k in range(3):
        h = 1e-6 * (1 + abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += h
        dn[k] -= h
        fd = (ple.log_pl(up, X) - ple.log_pl(dn, X)) / (2 * h)
        worst = max(worst, abs(fd - grad[k]) / abs(fd))
    yield _below("logpl_gradient_fd", worst, 1e-6)


def _check_logistic_pass_blocked():
    """The sliced Newton pass and log-PL over a pair matrix of three slices,
    cut into two blocks, against the single-shot tanh / logaddexp formulas;
    sums are compared relative to the largest value they could take."""
    rng = np.random.default_rng(16)
    X = rng.standard_normal((2 * ple._SLICE_ROWS + 3, 3))
    theta = rng.standard_normal(3)
    theta *= 60.0 / np.abs(X @ theta).max()  # margins up to +-60
    margins = X @ theta
    grad, info = ple._newton_pass(lambda: (X[:1000], X[1000:]), theta)
    p = 0.5 * (1.0 + np.tanh(margins / 2.0))
    q = 1.0 - p
    A = np.abs(X)
    ref = -np.logaddexp(0.0, -margins).sum()
    worst = max(
        float((np.abs(grad - q @ X) / A.sum(axis=0)).max()),
        float((np.abs(info - (X.T * (p * q)) @ X) / (A.T @ A)).max()),
        abs(ple.log_pl(theta, X) - ref) / abs(ref),
    )
    yield _below("logistic_pass_blocked", worst, 1e-12)


def _check_pair_sign():
    """The fitters' pair matrix holds minus the swap delta of each pair."""
    rng = np.random.default_rng(14)
    spec = core.ar_spec(2)
    series = core.TimeSeries(rng.standard_normal(30))
    s1, s2 = np.sort([rng.choice(range(2, 28), size=2, replace=False) for _ in range(20)]).T
    ((X,),) = ple._PairDesign(spec, series, [s1], [s2])()
    worst = max(
        float(np.abs(x + core.swap_delta(spec, series, int(a), int(b))).max())
        for x, a, b in zip(X, s1, s2)
    )
    yield _below("pair_statistic_sign", worst, 1e-12)


def _check_monotone_ascent():
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 120, seed=15)
    fit = ple.fit_naive(spec, series)
    X = np.concatenate(ple._PairDesign(spec, series)(), axis=1)[0]
    diffs = np.diff([ple.log_pl(theta, X) for theta in fit.theta_trace])
    worst = float(diffs.min()) if len(diffs) else 0.0
    yield CheckResult("objective_monotone_ascent", worst >= -1e-12, worst, -1e-12)


def _check_newton_pilot_start():
    """An all-pairs AR(1) fit started from its pilot against the same fit
    from theta = 0 (pilot threshold raised past the design), both at tol
    1e-10.  Every full step the self-concordance certificate accepted, in
    the pilots and both fits, the fits' final stops included, is re-checked
    with log_pl on its own design from its own start point, the theta of
    the pass that gave the certificate its gradient: it must not lower the
    log-PL by more than 1e-12 (1 + |log_pl|)."""
    spec = core.ar_spec(1)
    series = gaussian.simulate_ar(gaussian.ClassicalARParams([0.5], 0.5), 800, seed=3)
    config = ple.GdConfig(tol=1e-10)
    newton_pass, certificate, min_pairs = ple._newton_pass, ple._certificate, ple._PILOT_MIN_PAIRS
    passes, drops = [], []

    def recording_pass(blocks, theta):
        grad, info = newton_pass(blocks, theta)
        passes.append((grad, blocks, theta))
        return grad, info

    def rechecked(grad, info, step, max_row_norm):
        ascends, bound = certificate(grad, info, step, max_row_norm)
        if ascends:  # a fit of one design: the last pass whose gradient the certificate got
            blocks, (start,) = next(
                (blocks, theta) for g, blocks, theta in reversed(passes) if np.array_equal(g[0], grad)
            )
            before = sum(ple.log_pl(start, X) for (X,) in blocks())
            after = sum(ple.log_pl(start + step, X) for (X,) in blocks())
            drops.append((before - after) / (1.0 + abs(before)))
        return ascends, bound

    ple._newton_pass, ple._certificate = recording_pass, rechecked
    try:
        warm = ple.fit_naive(spec, series, config)
        ple._PILOT_MIN_PAIRS = math.inf
        cold = ple.fit_naive(spec, series, config)
    finally:
        ple._newton_pass, ple._certificate, ple._PILOT_MIN_PAIRS = newton_pass, certificate, min_pairs
    gap = float(np.abs(warm.theta - cold.theta).max())
    worst = max(drops, default=math.nan)
    ok = (
        warm.converged and cold.converged and warm.stages["pilot_s"] > 0.0
        and gap <= 1e-9 and len(drops) > 0 and worst <= 1e-12
    )
    detail = (
        f"passes {warm.iterations} from the pilot, {cold.iterations} from zero; "
        f"certified steps {len(drops)}, largest relative log-PL drop {worst:.1e}"
    )
    yield CheckResult("newton_pilot_start", bool(ok), gap, 1e-9, detail)


def _check_select_warm_start():
    """``select_specs`` of criterion 9c's four ``kron_spec(2, ...)``
    candidates on a binary/real series of n = 307 (CI's "Select is
    reproducible" input), whose first split of each spec is fitted from
    theta = 0 and whose other splits start from that fit's theta as one
    batch, against rows computed here with every split fitted by
    ``fit_pairs`` from theta = 0: the rows' log-PL within 1e-12 relative
    and the same AIC and PIC ranks."""
    z = gaussian.simulate_ar(gaussian.ClassicalARParams([0.6], 0.5), 307, seed=2).data[:, 0]
    b = (np.random.default_rng(3).random(307) < 1.0 / (1.0 + np.exp(-np.roll(z, 1)))).astype(float)
    series = core.TimeSeries(np.column_stack([b, z]), kinds=("binary", "real"))
    blocks = ((1, 1, 1),), ((1, 1, 1), (1, 1, 2)), ((1, 1, 1), (1, 2, 1)), ((1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2))
    specs = [core.kron_spec(2, block) for block in blocks]
    newton, passes = ple._newton, {"select": 0, "cold": 0}

    def counted(*args, **kwargs):
        ascents = newton(*args, **kwargs)
        passes["select"] += sum(ascent.passes for ascent in ascents)
        return ascents

    ple._newton = counted
    try:
        warm = ple.select_specs(series, specs, seed=1)
    finally:
        ple._newton = newton
    d = max(spec.order for spec in specs)
    designs = [ple.spaced_matching(series.n, d, child) for child in np.random.SeedSequence(1).spawn(9)]
    cold = []
    for spec in specs:
        padded = core.DependenceSpec(order=d, dim=spec.dim, terms=spec.terms)
        fits = [ple.fit_pairs(padded, series, s1, s2, ple.SELECT_CONFIG) for s1, s2 in designs]
        passes["cold"] += sum(fit.iterations for fit in fits)
        mean = float(np.mean([fit.log_pl for fit in fits]))
        aic, pic = ple.aic_pic(mean, padded.n_terms, series.n, d)
        cold.append(ple.SelectRow(padded.n_terms, mean, aic, pic))
    gap = max(abs(w.log_pl - c.log_pl) / abs(c.log_pl) for w, c in zip(warm, cold))

    def ranks(rows, key):
        return sorted(range(len(rows)), key=lambda i: getattr(rows[i], key))

    same = all(ranks(warm, key) == ranks(cold, key) for key in ("aic", "pic"))
    detail = (
        f"passes {passes['select']} anchored and batched, {passes['cold']} from zero; "
        f"ranks {'equal' if same else 'differ'}"
    )
    yield CheckResult("select_warm_start", same and gap < 1e-12, gap, 1e-12, detail)


def _check_consistency_ordering():
    # reduced desk-scale version of the error-vs-n trend (5 seeds per size)
    spec = core.ar_spec(1)
    params = gaussian.ClassicalARParams([0.5], 0.5)
    means = []
    for n in (100, 400, 1600):
        errs = []
        for s in range(5):
            series = gaussian.simulate_ar(params, n, seed=500 + s)
            fit = ple.fit_naive(spec, series)
            errs.append(abs(float(fit.theta[0]) - 1.0))
        means.append(float(np.mean(errs)))
    ok = means[0] > means[1] > means[2]
    detail = f"mean errors {[round(m, 4) for m in means]} for n in (100, 400, 1600)"
    yield CheckResult("estimator_consistency_ordering", ok, means[-1] - means[0], 0.0, detail)


# every check, in the report's order (also their order of definition)
_CHECKS = (
    _check_transform_anchors, _check_roundtrips, _check_fisher, _check_pythagorean,
    _check_divergence_nonneg, _check_swap_recompute, _check_swap_deltas_batch,
    _check_all_pairs_design, _check_exchange_step_factored, _check_exchange_step_near,
    _check_multilinearity, _check_reversal, _check_remainder_invariance,
    _check_conditional_normalization, _check_detailed_balance, _check_zero_theta_acceptance,
    _check_score_zero_mean, _check_enumeration_equivalence, _check_logpl_zero,
    _check_logpl_gradient, _check_logistic_pass_blocked, _check_pair_sign, _check_monotone_ascent,
    _check_newton_pilot_start, _check_select_warm_start, _check_consistency_ordering,
)


def run_checks():
    """Every check's :class:`CheckResult`, in the report's order."""
    for check in _CHECKS:
        yield from check()

"""Shared substrate: time-series container, monomial dependence functions,
sufficient statistics, and incremental swap updates.

Index conventions are 0-based throughout.  A window at time ``t`` stacks the
rows ``x_t, x_{t-1}, ..., x_{t-d}`` (row 0 is the current observation).  The
swappable interior of a series of length ``n`` under a spec of order ``d`` is
the position range ``d <= i <= n - d - 1``: the first ``d`` and last ``d``
positions stay frozen under conditional inference.

Every vectorized monomial evaluation goes through one compiled table per
spec (:class:`MonomialTable`): the distinct ``(component, exponent)`` powers
are computed once per row and each term multiplies its power columns.  The
windows of a series are read from those columns through one strided view
(:func:`_windows`), so neither ``window_statistics`` nor the swap-table
build copies a row per window.

Batched swap deltas use the factored ("local-energy") form.  Write the sum
of the statistics of the windows touching position ``i``, with value ``v``
placed at ``i``, as ``E_i(v) = sum_g S_g[i] * Phi_g(v)``: ``Phi_g`` is the
product of the factors a term takes from one lag and ``S_g[i]`` the summed
products of its other factors, read off the neighbours of ``i``.  When
``s2 - s1 > d`` the windows of the two positions are disjoint, so

    delta = sum_g (S_g[s1] - S_g[s2]) * (Phi_g(x_{s2}) - Phi_g(x_{s1})),

with ``S`` and ``Phi`` tabulated once per position instead of gathered once
per pair.  The tables of the whole interior are built once per (spec,
series), from the strided windows of 2d + 1 rows around each position, and
kept on the spec's table in a one-entry cache that holds the
series weakly (``MonomialTable._swap_tables``): (owns + groups) x (n - d)
floats per spec, freed with the series or by the next series' build.  The
O(m d) near pairs re-evaluate their at most 2d + 1 windows directly.  The
exchange sampler, one pair at a time under a changing ordering, sums ``S``
for the two positions on the fly instead, reading per-column lists of the
ordering (its only copy of it), in code generated from the same plan
(:func:`mimm.mcle._exchange_kernel`).

The all-pairs design (every interior pair in lexicographic order) needs no
pair indices at all: for a tile of rows s1 the far pairs of every s2 > s1
are one broadcast per group of the same tables, ``(S_g[s1] - S_g[s2]) *
(Phi_g[s2] - Phi_g[s1])``, and each term's tile writes its upper triangle
into the term's column of the design through the triangle mask
(:func:`_all_pairs_deltas`).  Both batch paths sum a term's groups from
0.0 straight into its output column, so no block of zeros is filled and
none is copied transposed.  The all-pairs design is
numbered here, where :func:`_all_pairs_blocks` cuts it into blocks, and
:func:`_uniform_pairs` draws online SGD's and the exchange sampler's
uniform pairs.  The random matchings of ``fit_bipartition`` and
``select_specs`` are drawn in :mod:`mimm.ple` (``_matching`` and
``spaced_matching``), each pair the elementwise minimum and maximum of the
even and the odd entries of one permutation.

All containers are immutable after construction and safe to share across
threads; every operation is a pure function.  The swap-table cache is the
one shared mutable state, and a hit returns the values a rebuild would.
Statistic summation relies on numpy's pairwise accumulation, which keeps
totals reproducible to ~1e-12 regardless of how callers shard the work.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import weakref
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    BoundaryViolationError,
    DegenerateScaleError,
    InsufficientDataError,
    InsufficientInteriorError,
    ParameterDomainError,
    ShapeMismatchError,
)

__all__ = [
    "MonomialTerm",
    "DependenceSpec",
    "TimeSeries",
    "ar_spec",
    "kron_spec",
    "window_statistics",
    "total_statistic",
    "swap_delta",
    "swap_deltas",
    "standard_scale",
]

VALID_KINDS = ("real", "binary")


@dataclass(frozen=True)
class MonomialTerm:
    """One entry of a dependence function: a monomial in lagged components.

    ``factors`` holds ``(lag, component, exponent)`` integers >= 0, 0 and 1
    (else :class:`ParameterDomainError`).  The constructor canonicalizes to
    Python ints sorted by ``(lag, component)``, merging duplicate pairs by
    adding exponents, so equality and hashing are well-defined.
    """

    factors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if len(self.factors) == 0:
            raise ValueError("a monomial term needs at least one factor")
        merged: dict[tuple[int, int], int] = {}
        for factor in self.factors:
            if len(factor) != 3:
                raise ValueError(f"factor must be (lag, component, exponent): {factor!r}")
            for name, value, least in zip(("lag", "component", "exponent"), factor, (0, 0, 1)):
                _check_count(name, value, least)
            lag, comp, exp = (int(v) for v in factor)
            merged[(lag, comp)] = merged.get((lag, comp), 0) + exp
        canon = tuple((lag, comp, exp) for (lag, comp), exp in sorted(merged.items()))
        object.__setattr__(self, "factors", canon)

    @property
    def max_lag(self) -> int:
        return max(lag for lag, _, _ in self.factors)

    @property
    def has_current(self) -> bool:
        """True when the term involves the lag-0 (current) observation."""
        return any(lag == 0 for lag, _, _ in self.factors)

    def label(self) -> str:
        """Serialized form, e.g. ``0:0^1*1:0^1`` for x_t * x_{t-1}."""
        return "*".join(f"{lag}:{comp}^{exp}" for lag, comp, exp in self.factors)

    @classmethod
    def parse(cls, text: str) -> "MonomialTerm":
        factors = []
        for piece in text.strip().split("*"):
            head, _, exp = piece.partition("^")
            lag_s, _, comp_s = head.partition(":")
            try:
                factors.append((int(lag_s), int(comp_s), int(exp) if exp else 1))
            except ValueError as err:
                raise ValueError(f"cannot parse monomial factor {piece!r}") from err
        return cls(tuple(factors))


@dataclass(frozen=True)
class DependenceSpec:
    """A dependence function: ``order`` lags, ``dim`` components, K monomials.

    ``order`` and ``dim`` are integers >= 1, stored as Python ints (else
    :class:`ParameterDomainError`); a term without a lag-0 factor only shifts
    the conditional law by a constant and is rejected as unidentifiable.
    """

    order: int
    dim: int
    terms: tuple[MonomialTerm, ...]

    def __post_init__(self):
        for name in ("order", "dim"):
            _check_count(name, getattr(self, name))
            object.__setattr__(self, name, int(getattr(self, name)))
        terms = tuple(self.terms)
        if len(terms) == 0:
            raise ValueError("a dependence spec needs at least one term")
        for term in terms:
            if not isinstance(term, MonomialTerm):
                raise TypeError(f"terms must be MonomialTerm, got {type(term)!r}")
            if term.max_lag > self.order:
                raise ValueError(f"term {term.label()} exceeds order {self.order}")
            if any(comp >= self.dim for _, comp, _ in term.factors):
                raise ValueError(f"term {term.label()} exceeds dimension {self.dim}")
            if not term.has_current:
                raise ValueError(
                    f"term {term.label()} has no lag-0 factor; it would only add "
                    "a constant shift to the conditional model"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    @functools.cached_property
    def _table(self) -> "MonomialTable":
        return MonomialTable(self)

    def evaluate(self, window) -> np.ndarray:
        """Evaluate all K monomials on one window (row 0 = current value)."""
        win = np.asarray(window, dtype=float)
        if win.ndim == 1:
            if self.dim != 1:
                raise ShapeMismatchError(f"1-d window but spec dimension is {self.dim}")
            win = win[:, None]
        if win.shape != (self.order + 1, self.dim):
            raise ShapeMismatchError(
                f"window shape {win.shape} does not match (order+1, dim) = "
                f"({self.order + 1}, {self.dim})"
            )
        return self._table.evaluate(self._table.powers(win))

    def to_text(self) -> str:
        """Line-oriented serialization: one term per line."""
        return "\n".join(term.label() for term in self.terms) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DependenceSpec":
        """Parse the line format; order and dim are the smallest valid values."""
        terms = tuple(
            MonomialTerm.parse(line)
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        )
        if not terms:
            raise ValueError("no terms found in spec text")
        order = max(term.max_lag for term in terms)
        dim = 1 + max(comp for term in terms for _, comp, _ in term.factors)
        return cls(order=order, dim=dim, terms=terms)

    @classmethod
    def load(cls, path) -> "DependenceSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def _product(lagged, factors) -> np.ndarray:
    """Product of ``lagged[..., lag, q]`` over the (lag, q) pairs in ``factors``."""
    (lag, q), *others = factors
    acc = lagged[..., lag, q]
    for lag, q in others:
        acc = acc * lagged[..., lag, q]
    return acc


class MonomialTable:
    """A spec compiled for vectorized evaluation; built once per spec and
    cached on it.

    ``comps``/``exps`` list the distinct (component, exponent) powers the
    terms use and every component's exponent-1 power, so ``values[c]`` is
    the power column that holds component c itself (added when no term
    uses it), and ``terms[k]`` lists term k's factors as (lag, power
    column).  The plan of the factored swap delta at position i: ``owns``
    lists the distinct products of one lag's factors of a term, each as a
    tuple of power columns, and ``groups`` holds ``(k, own index, slots)``:
    one slot per lag at which term k takes that product, listing the
    term's remaining factors as (offset, power column), read at position
    i + offset.  A term touching a single lag is left out, since a swap of
    interior positions only permutes its summands.
    """

    def __init__(self, spec: DependenceSpec):
        used = {(comp, exp) for term in spec.terms for _, comp, exp in term.factors}
        powers = sorted(used | {(comp, 1) for comp in range(spec.dim)})
        column = {power: q for q, power in enumerate(powers)}
        self.order = spec.order
        self.comps = np.array([comp for comp, _ in powers], dtype=np.intp)
        self.exps = tuple(exp for _, exp in powers)
        self.values = tuple(column[(comp, 1)] for comp in range(spec.dim))
        self.terms = tuple(
            tuple((lag, column[(comp, exp)]) for lag, comp, exp in term.factors)
            for term in spec.terms
        )
        owns: dict[tuple, int] = {}
        groups = []
        for k, factors in enumerate(self.terms):
            lags = sorted({lag for lag, _ in factors})
            if len(lags) < 2:
                continue
            by_own: dict[tuple, list] = {}
            for lag in lags:
                own = tuple(q for l, q in factors if l == lag)
                rest = tuple((lag - l, q) for l, q in factors if l != lag)
                by_own.setdefault(own, []).append(rest)
            for own, slots in by_own.items():
                groups.append((k, owns.setdefault(own, len(owns)), tuple(slots)))
        self.owns = tuple(owns)
        self.groups = tuple(groups)
        self._swap_entry = None  # (weakref to a series, its swap tables)

    def _swap_tables(self, series: TimeSeries) -> tuple[list, list]:
        """The factored swap tables (Phi, S) of ``series`` over its whole
        interior, indexed by position (:func:`_factored_tables` on the
        strided windows of the power columns, with ``pad`` d), read-only.
        The last series' tables are kept in a one-entry cache that holds
        the series only by a weak reference: they are built once for every
        fit of this spec on it, and freed with it.
        Threads that share the spec may replace each other's entry, which
        costs a rebuild of the same values, never a different result."""
        entry = self._swap_entry
        if entry is not None and entry[0]() is series:
            return entry[1]
        tables = _factored_tables(self, _windows(self.powers(series.data), 2 * self.order + 1), self.order)
        for column in itertools.chain(*tables):
            column.setflags(write=False)
        owner = weakref.ref(self)

        def forget(key):
            table = owner()
            entry = None if table is None else table._swap_entry
            if entry is not None and entry[0] is key:
                table._swap_entry = None

        self._swap_entry = (weakref.ref(series, forget), tables)
        return tables

    def powers(self, values: np.ndarray) -> np.ndarray:
        """Power columns of the values: (..., p) -> (..., Q)."""
        out = values[..., self.comps]
        for q, exp in enumerate(self.exps):
            if exp != 1:
                out[..., q] **= exp
        return out

    def evaluate(self, lagged: np.ndarray) -> np.ndarray:
        """Monomial values of windows given as powers: (..., d+1, Q) -> (..., K)."""
        out = np.empty(lagged.shape[:-2] + (len(self.terms),))
        for k, factors in enumerate(self.terms):
            out[..., k] = _product(lagged, factors)
        return out


def ar_spec(order: int) -> DependenceSpec:
    """Univariate autoregressive-type dependence: terms x_t * x_{t-i}."""
    _check_count("order", order)
    terms = tuple(MonomialTerm(((0, 0, 1), (i, 0, 1))) for i in range(1, order + 1))
    return DependenceSpec(order=order, dim=1, terms=terms)


def kron_spec(dim: int, blocks) -> DependenceSpec:
    """Kronecker-product dependence over ``dim`` components.

    Each block ``(lag, exp_now, exp_lag)`` contributes the dim**2 monomials
    ``x_{t,i}**exp_now * x_{t-lag,j}**exp_lag`` with i outer and j inner,
    matching the column-stacking vectorization of the coefficient matrix.
    A ``dim`` or block entry not an integer >= 1 raises ParameterDomainError.
    """
    _check_count("dim", dim)
    blocks = list(blocks)
    if not blocks:
        raise ValueError("need at least one (lag, exp_now, exp_lag) block")
    for block in blocks:
        for name, value in zip(("lag", "exp_now", "exp_lag"), block):
            _check_count(name, value)
    terms = []
    for lag, exp_now, exp_lag in blocks:
        for i in range(dim):
            for j in range(dim):
                terms.append(MonomialTerm(((0, i, exp_now), (lag, j, exp_lag))))
    order = max(lag for lag, _, _ in blocks)
    return DependenceSpec(order=order, dim=dim, terms=tuple(terms))


@dataclass(frozen=True, eq=False, repr=False)
class TimeSeries:
    """An n-by-p block of observations with per-column kind tags.

    ``data`` is stored as a read-only float array; binary-tagged columns must
    contain only 0/1 values and every entry must be finite.  ``kinds``
    defaults to all-real and is stored as a tuple.
    """

    data: np.ndarray
    kinds: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.data, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ShapeMismatchError(f"series must be 2-d, got shape {arr.shape}")
        n, p = arr.shape
        if n < 1 or p < 1:
            raise ShapeMismatchError(f"series must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("series contains non-finite entries")
        kinds = ("real",) * p if self.kinds is None else tuple(self.kinds)
        if len(kinds) != p:
            raise ShapeMismatchError(f"{len(kinds)} kind tags for {p} columns")
        for j, kind in enumerate(kinds):
            if kind not in VALID_KINDS:
                raise ValueError(f"unknown column kind {kind!r} (column {j})")
            if kind == "binary" and not np.all(np.isin(arr[:, j], (0.0, 1.0))):
                raise ValueError(f"binary column {j} has values outside {{0, 1}}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "kinds", kinds)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"TimeSeries(n={self.n}, p={self.p}, kinds={self.kinds})"

    @classmethod
    def from_csv(cls, path, kinds=None) -> "TimeSeries":
        """Load a CSV with one row per time step and p numeric columns.

        The first line is skipped as a header when it does not parse as
        numbers.  Column kinds come from the caller (e.g. a sidecar config);
        the default is all-real.  A file with no data row (empty, or a
        header only) raises :class:`InsufficientDataError`.
        """
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        first = lines[0] if lines else ""
        skip = 0
        try:
            [float(tok) for tok in first.strip().split(",") if tok != ""]
        except ValueError:
            skip = 1
        rows = lines[skip:]
        # loadtxt reads every line as a data row but blank and '#' comment ones
        if not any(line.split("#", 1)[0].strip() for line in rows):
            raise InsufficientDataError(f"{path} holds no data rows")
        return cls(np.loadtxt(rows, delimiter=",", ndmin=2), kinds=kinds)

    def to_csv(self, path) -> None:
        """Write one line per row, each value as the ``repr`` of its float,
        which :meth:`from_csv` reads back exactly; no header.

        Each column is formatted once and the file is joined as one
        string: the bytes are unchanged from a join per row,
        ``",".join(map(repr, row)) + "\\n"`` for each row, in 0.6-0.75 of
        its time."""
        rows = zip(*(map(repr, column) for column in self.data.T.tolist()))
        text = "\n".join(map(",".join, rows)) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_series(spec: DependenceSpec, series: TimeSeries) -> None:
    if series.p != spec.dim:
        raise ShapeMismatchError(
            f"series has {series.p} columns but spec dimension is {spec.dim}"
        )
    if series.n < spec.order + 1:
        raise InsufficientDataError(
            f"series length {series.n} < order + 1 = {spec.order + 1}"
        )


def _check_count(name: str, value, least: int = 1) -> None:
    """The one rule of an integer setting: an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterDomainError(f"{name} must be an integer >= {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """The one rule of a positive real setting: a real, not a bool, finite and > 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ParameterDomainError(f"{name} must be finite and > 0, got {value!r}")


_STATISTIC_LIMIT = math.sqrt(np.finfo(float).max)  # about 1.34e154: the largest finite square


def _check_finite_statistics(spec: DependenceSpec, values: np.ndarray, what: str) -> None:
    """Refuse statistics whose squares (so a Fisher matrix or a chain
    covariance) would overflow: raise :class:`ParameterDomainError` naming
    the first term whose column of ``values`` (one column per term) holds a
    nan or a value past ``_STATISTIC_LIMIT`` in magnitude.  Max and min
    reductions, which a nan fails, test it with no temporary of that size."""
    if values.max() <= _STATISTIC_LIMIT and values.min() >= -_STATISTIC_LIMIT:
        return
    columns = values.reshape(-1, spec.n_terms)
    inside = (columns.max(axis=0) <= _STATISTIC_LIMIT) & (columns.min(axis=0) >= -_STATISTIC_LIMIT)
    raise ParameterDomainError(
        f"{what} of term {spec.terms[int(np.argmin(inside))].label()} are not all below {_STATISTIC_LIMIT:.3g} "
        "in magnitude, past which their squares overflow; standardize the series first (core.standard_scale)"
    )


def _check_identified(blocks) -> None:
    """Refuse pair statistics that are all zero (a constant series, say),
    given as blocks of rows: every theta then gives the same
    pseudo-likelihood and the same conditional law, so
    :class:`InsufficientDataError`."""
    if not any(X.any() for X in blocks):
        raise InsufficientDataError("every pair statistic is zero, so theta is not identified")


def _interior_bounds(spec: DependenceSpec, series: TimeSeries) -> tuple[int, int]:
    d = spec.order
    m = series.n - 2 * d
    if m < 2:
        raise InsufficientInteriorError(
            f"need at least 2 interior positions, got {m} (n={series.n}, d={d})"
        )
    return d, series.n - d  # half-open [lo, hi)


def _windows(values: np.ndarray, width: int) -> np.ndarray:
    """Every run of ``width`` consecutive rows of ``values`` (n, Q), n >=
    ``width``, as a read-only strided view, (n - width + 1, width, Q):
    entry [i, j] is row i + j.  No row is copied.  This is numpy's
    ``sliding_window_view`` over axis 0, transposed, without its argument
    checks, which took about 10 us a call on a 2-vCPU x86_64 host, as long
    as the whole ``window_statistics`` of an n = 100 series."""
    n, q = values.shape
    row, column = values.strides
    return np.lib.stride_tricks.as_strided(values, (n - width + 1, width, q), (row, row, column), writeable=False)


def window_statistics(spec: DependenceSpec, series: TimeSeries) -> np.ndarray:
    """Per-window dependence values, shape (n - d, K); row i is the window at
    time t = d + i, read from the power columns through a reversed strided
    view (:func:`_windows`), so lag l is row t - l."""
    _check_series(spec, series)
    table = spec._table
    return table.evaluate(_windows(table.powers(series.data), spec.order + 1)[:, ::-1])


def total_statistic(spec: DependenceSpec, series: TimeSeries) -> np.ndarray:
    """Sufficient statistic H: the K-vector sum of h over all n - d windows."""
    return window_statistics(spec, series).sum(axis=0)


def _check_swap_indices(n: int, d: int, s1: int, s2: int) -> None:
    # a bool would read as position 0 or 1, a float fail later as an index
    if any(isinstance(s, bool) or not isinstance(s, numbers.Integral) for s in (s1, s2)):
        raise BoundaryViolationError(f"swap indices must be integers, got {s1!r} and {s2!r}")
    if s1 >= s2:
        raise BoundaryViolationError(f"need s1 < s2, got ({s1}, {s2})")
    if s1 < d or s2 > n - d - 1:
        raise BoundaryViolationError(
            f"swap ({s1}, {s2}) outside the interior [{d}, {n - d - 1}] for n={n}, d={d}"
        )


def _affected_windows(d: int, s1: int, s2: int):
    """Window times touching position s1 or s2, without duplicates."""
    return itertools.chain(
        range(s1, s1 + d + 1), range(max(s2, s1 + d + 1), s2 + d + 1)
    )


def _swap_delta_rows(rows, d, terms, s1, s2):
    """Scalar-path swap delta on rows of Python floats.

    ``rows`` is the sequence of data rows of the current ordering, as
    ``data.tolist()`` gives them.
    Returns the list H(swapped) - H(current) re-evaluating only affected
    windows.  Serves only :func:`swap_delta`, the oracle of every faster
    path; the exchange chain's near-pair lines are this loop unrolled per
    spec and gap (:func:`mimm.mcle._near_pair_lines`), reading the same
    values from the chain's value columns (``MonomialTable.values``), and
    its compiled step is checked bitwise against it.
    """
    r1, r2 = rows[s1], rows[s2]
    delta = [0.0] * len(terms)
    for t in _affected_windows(d, s1, s2):
        for k, factors in enumerate(terms):
            before = 1.0
            after = 1.0
            for lag, comp, exp in factors:
                pos = t - lag
                row = rows[pos]
                if pos == s1:
                    swapped = r2
                elif pos == s2:
                    swapped = r1
                else:
                    swapped = row
                if exp == 1:
                    before *= row[comp]
                    after *= swapped[comp]
                else:
                    before *= row[comp] ** exp
                    after *= swapped[comp] ** exp
            delta[k] += after - before
    return delta


def _term_factor_tuples(spec: DependenceSpec):
    return tuple(term.factors for term in spec.terms)


def swap_delta(spec: DependenceSpec, series: TimeSeries, s1: int, s2: int) -> np.ndarray:
    """Change of the sufficient statistic under the transposition of interior
    positions s1 < s2 of ``series``; a permuted ordering is the series of its
    rows, ``TimeSeries(data[order])``.

    Only the at most 2(d+1) windows containing s1 or s2 are re-evaluated.
    """
    _check_series(spec, series)
    _check_swap_indices(series.n, spec.order, s1, s2)
    return np.asarray(_swap_delta_rows(series.data.tolist(), spec.order, _term_factor_tuples(spec), s1, s2))


def _factored_tables(table: MonomialTable, G: np.ndarray, pad: int):
    """Per-position tables of the factored swap delta, each preceded by
    ``pad`` unused entries, from the power columns ``G`` (P, 2d + 1, Q) of
    the windows centred on P positions (column d + j holds the powers of row
    i + j): ``phi[j]`` is own product j, and ``S[g]`` sums the products over
    group g's slots.  ``G`` may be a strided view (:func:`_windows`) or a
    gathered copy; the tables are the same floats."""
    d = table.order

    def padded(values):
        out = np.zeros(pad + len(G))
        out[pad:] = values
        return out

    phi = [padded(_product(G, [(d, q) for q in own])) for own in table.owns]
    S = [
        padded(sum(_product(G, [(d + off, q) for off, q in slot]) for slot in slots))
        for _, _, slots in table.groups
    ]
    return phi, S


# pairs per block of the far-pair sweep: its temporaries stay in cache
# (unblocked, 1e5 SGD pairs at n = 1e4 took 3.7 ms against 1.9 ms)
_SWAP_BLOCK = 1 << 14


def _near_deltas(table: MonomialTable, X: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """Direct swap deltas, shape (B, K), for pairs with s2 - s1 <= d: the
    windows t = s1 .. s2 + d (at most 2d + 1) are evaluated before and after
    the swap."""
    d = table.order
    last = (s2 + d)[:, None]
    times = s1[:, None] + np.arange(2 * d + 1)
    valid = times <= last
    rows = np.minimum(times, last)[:, :, None] - np.arange(d + 1)  # (B, 2d+1, d+1)
    a, b = s1[:, None, None], s2[:, None, None]
    swapped = np.where(rows == a, b, np.where(rows == b, a, rows))
    after = table.evaluate(table.powers(X[swapped]))
    before = table.evaluate(table.powers(X[rows]))
    return ((after - before) * valid[:, :, None]).sum(axis=1)


def swap_deltas(spec: DependenceSpec, series: TimeSeries, s1, s2) -> np.ndarray:
    """Vectorized swap deltas for identity ordering: row b is
    H(swap s1[b], s2[b]) - H(identity), shape (B, K).

    Far pairs (s2 - s1 > d) use the factored form of the module docstring,
    each pair row a few 1-d ``take``s per term from the tables S and Phi
    of the whole interior, built on the first call for this spec and
    series and cached on the spec's ``MonomialTable`` (``_swap_tables``).
    A block of pairs writes each term's column of the output directly: 0.0
    plus its first group's product, then its other groups in plan order,
    the bytes of a sum started from zeros (a term with no group is 0.0).
    Near pairs re-evaluate their overlapping windows directly.  Used by
    ``fit_bipartition``, ``fit_pairs``, ``fit_online_sgd`` and pilots;
    ``fit_naive``'s full design is built by :func:`_all_pairs_deltas`
    instead, bitwise equal on the same pairs.
    Agrees with :func:`swap_delta` to ~1e-12 (summation order differs).
    """
    _check_series(spec, series)
    d = spec.order
    X = series.data
    n = series.n
    # a bool among a list's ints would convert to position 0 or 1
    if any(isinstance(s, (list, tuple)) and any(isinstance(v, (bool, np.bool_)) for v in s) for s in (s1, s2)):
        raise BoundaryViolationError("swap indices must be integers, not bools")
    s1, s2 = np.atleast_1d(s1, s2)
    if any(s.size and s.dtype.kind not in "iu" for s in (s1, s2)):
        raise BoundaryViolationError(f"swap indices must be integers, got {s1.dtype} and {s2.dtype}")
    s1, s2 = s1.astype(np.intp, copy=False), s2.astype(np.intp, copy=False)
    if s1.shape != s2.shape or s1.ndim != 1:
        raise ShapeMismatchError("s1 and s2 must be 1-d arrays of equal length")

    table = spec._table
    B, K = len(s1), spec.n_terms
    out = np.empty((B, K))
    if B == 0:
        return out
    if int(s1.min()) < d or int(s2.max()) > n - d - 1:
        raise BoundaryViolationError("swap indices outside the swappable interior")
    phi, S = table._swap_tables(series)

    near = []
    for lo in range(0, B, _SWAP_BLOCK):
        hi = min(lo + _SWAP_BLOCK, B)
        gap = s2[lo:hi] - s1[lo:hi]
        if gap.min() < 1:
            raise BoundaryViolationError("need s1 < s2 elementwise")
        near.append(lo + np.flatnonzero(gap <= d))
        a, b = s1[lo:hi], s2[lo:hi]
        dphi = [p.take(b) - p.take(a) for p in phi]
        # from 0.0, as a sum into zeros: 0.0 + the first group's product
        # (a -0.0 becomes 0.0), then the others in place
        sums = [0.0] * K
        for (k, own, _), s in zip(table.groups, S):
            sums[k] += (s.take(a) - s.take(b)) * dphi[own]
        for k, column in enumerate(sums):
            out[lo:hi, k] = column
    near = np.concatenate(near)
    if near.size:
        out[near] = _near_deltas(table, X, s1[near], s2[near])
    return out


# rows per tile of the all-pairs build: at most 32, and fewer on rows of
# more than 1024 pairs, so a tile's temporaries (up to 32 x 1024 floats
# each) stay in cache at every n
_PAIR_TILE_ROWS = 32


def _all_pairs_deltas(spec: DependenceSpec, series: TimeSeries, r0: int, r1: int) -> np.ndarray:
    """Swap deltas of every interior pair (s1, s2) with r0 <= s1 < r1 and
    s1 < s2 <= n - d - 1, in lexicographic order: rows r0 .. r1 - 1 of the
    all-pairs design, shape (N, K).

    The tables S and Phi are the series' cached whole-interior tables
    (``MonomialTable._swap_tables``), so the chunks of a design, and every
    pass that rebuilds them, share one build.  For a tile of rows the far
    pairs are one broadcast per group, summed per term from 0.0 in
    ``MonomialTable.groups`` order, so every entry equals
    :func:`swap_deltas` on the same pair list bitwise; each term's tile
    writes its upper triangle (s2 > s1) into the term's output column
    through the triangle mask.  The near pairs,
    the first d entries of each row, are overwritten by the direct
    re-evaluation.  No per-pair index array is built.
    """
    _check_series(spec, series)
    d, hi = spec.order, series.n - spec.order
    if not d <= r0 <= r1 <= hi - 1:
        raise BoundaryViolationError(f"rows [{r0}, {r1}) outside the interior rows [{d}, {hi - 1})")
    table = spec._table
    K = spec.n_terms
    X = series.data
    if r1 == r0:
        return np.empty((0, K))
    s1 = np.arange(r0, r1, dtype=np.intp)
    ends = np.cumsum(hi - 1 - s1)  # pairs up to and including each row
    out = np.empty((int(ends[-1]), K))
    phi, S = table._swap_tables(series)
    # tile entry (t, c) is the pair (a + t, a + 1 + c), kept when c >= t
    upper = np.arange(hi - r0 - 1) >= np.arange(_PAIR_TILE_ROWS)[:, None]
    start, a = 0, r0
    while a < r1:
        width = hi - a - 1
        b = min(a + min(_PAIR_TILE_ROWS, max(1, _PAIR_TILE_ROWS * 1024 // width)), r1)
        rows, cols = slice(a, b), slice(a + 1, hi)
        dphi = [p[None, cols] - p[rows, None] for p in phi]
        sums = [0.0] * K  # from 0.0, as in swap_deltas
        for (k, own, _), s in zip(table.groups, S):
            sums[k] += (s[rows, None] - s[None, cols]) * dphi[own]
        kept = upper[: b - a, :width]
        end = int(ends[b - 1 - r0])
        for k, tile in enumerate(sums):
            out[start:end, k] = tile[kept] if np.ndim(tile) else 0.0
        start, a = end, b
    # near pairs (s1, s1 + j), j = 1 .. d, sit at the start of each row
    s2 = s1[:, None] + np.arange(1, d + 1)
    near = s2 < hi
    at = (ends - (hi - 1 - s1))[:, None] + np.arange(d)
    out[at[near]] = _near_deltas(table, X, np.broadcast_to(s1[:, None], s2.shape)[near], s2[near])
    return out


def _all_pairs_blocks(spec: DependenceSpec, series: TimeSeries, chunk: int, stride: int = 1):
    """Lazily, the swap-delta blocks of pairs 0, stride, 2 stride, ... of
    the all-pairs design, cut by one rule at every stride: a block is a run
    of whole rows (one s1 with every s2 > s1), closed at the first row that
    brings it to at least ``chunk`` kept pairs, so it holds at most
    ``chunk`` kept pairs plus one row's.  The runs come from the rows'
    cumulative pair counts, one ``searchsorted`` per run.  At stride 1 a run
    is built by :func:`_all_pairs_deltas`; at any other its kept pairs go to
    one :func:`swap_deltas` call (pair number p of row r has s2 = hi + p -
    ends[r]), and a run that keeps no pair yields nothing."""
    lo, hi = _interior_bounds(spec, series)
    ends = np.cumsum(np.arange(hi - lo - 1, 0, -1, dtype=np.intp))  # one past each row's last pair number
    kept = -(-ends // stride)  # pair numbers kept up to each row's end
    r, taken = 0, 0
    while r < len(ends):  # the next run is rows lo + r .. lo + e - 1
        e = min(max(r, int(np.searchsorted(kept, taken + chunk))) + 1, len(ends))
        if stride == 1:
            yield _all_pairs_deltas(spec, series, lo + r, lo + e)
        elif kept[e - 1] > taken:
            counts = np.diff(kept[r:e], prepend=taken)  # kept pairs per row
            s2 = np.repeat(hi - ends[r:e], counts)
            s2 += np.arange(taken * stride, ends[e - 1], stride)
            yield swap_deltas(spec, series, np.repeat(np.arange(lo + r, lo + e), counts), s2)
        r, taken = e, int(kept[e - 1])


def _uniform_pairs(rng: np.random.Generator, lo: int, hi: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """``size`` independent uniform unordered pairs of distinct positions in
    [lo, hi), as (smaller, larger) arrays: a uniform over the m = hi - lo
    positions, then b uniform over the m - 1 others, built in place."""
    a = rng.integers(lo, hi, size=size)
    b = rng.integers(lo, hi - 1, size=size)
    b += b >= a
    return np.minimum(a, b), np.maximum(a, b, out=b)


def standard_scale(series: TimeSeries) -> TimeSeries:
    """Standardize real columns to zero mean and unit variance; binary
    columns pass through unchanged.

    Uses the population convention (divide by n), so the two-point column
    (0, 2) maps exactly to (-1, 1).
    """
    data = series.data.copy()
    for j, kind in enumerate(series.kinds):
        if kind != "real":
            continue
        col = data[:, j]
        mean = col.mean()
        sd = np.sqrt(np.mean((col - mean) ** 2))
        if sd == 0.0 or not np.isfinite(sd):
            raise DegenerateScaleError(f"real column {j} has zero standard deviation")
        data[:, j] = (col - mean) / sd
    return TimeSeries(data, kinds=series.kinds)

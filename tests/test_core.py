"""Dependence functions, sufficient statistics, and swap deltas."""

import dataclasses
import gc
import sys
import threading
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_acceptance import assert_verify_passes

from mimm import core, mcle, verify
from mimm.exceptions import (
    BoundaryViolationError,
    DegenerateScaleError,
    InsufficientDataError,
    InsufficientInteriorError,
    ParameterDomainError,
    ShapeMismatchError,
)


class TestMonomialTerm:
    def test_canonicalization_merges_duplicate_factors(self):
        term = core.MonomialTerm(((1, 0, 1), (0, 0, 1), (1, 0, 2)))
        assert term.factors == ((0, 0, 1), (1, 0, 3))

    def test_equality_and_hash_after_reordering(self):
        a = core.MonomialTerm(((0, 1, 1), (2, 0, 1)))
        b = core.MonomialTerm(((2, 0, 1), (0, 1, 1)))
        assert a == b and hash(a) == hash(b)

    def test_label_round_trip(self):
        term = core.MonomialTerm(((0, 0, 2), (1, 1, 1)))
        assert core.MonomialTerm.parse(term.label()) == term

    @pytest.mark.parametrize("factors", [(), ((0, 0, 0),), ((-1, 0, 1),), ((0, -1, 1),)])
    def test_invalid_factors_rejected(self, factors):
        with pytest.raises(ValueError):
            core.MonomialTerm(tuple(factors))


class TestDependenceSpec:
    def test_ar_spec_shape(self):
        spec = core.ar_spec(3)
        assert spec.order == 3 and spec.dim == 1 and spec.n_terms == 3

    def test_rejects_term_without_current_value(self):
        with pytest.raises(ValueError, match="lag-0"):
            core.DependenceSpec(2, 1, (core.MonomialTerm(((1, 0, 1), (2, 0, 1))),))

    def test_rejects_lag_beyond_order(self):
        with pytest.raises(ValueError):
            core.DependenceSpec(1, 1, (core.MonomialTerm(((0, 0, 1), (2, 0, 1))),))

    def test_rejects_component_beyond_dim(self):
        with pytest.raises(ValueError):
            core.DependenceSpec(1, 1, (core.MonomialTerm(((0, 1, 1), (1, 0, 1))),))

    def test_text_round_trip(self):
        spec = core.kron_spec(2, [(1, 1, 1), (1, 2, 1)])
        parsed = core.DependenceSpec.from_text(spec.to_text())
        assert parsed == spec

    def test_text_format_example(self):
        spec = core.DependenceSpec.from_text("0:0^1*1:0^1\n")
        assert spec == core.ar_spec(1)


class TestEvaluate:
    def test_single_product(self):
        assert core.ar_spec(1).evaluate([2.0, 3.0]) == pytest.approx([6.0])

    def test_zero_annihilates(self):
        for x in (-3.0, 0.0, 7.5):
            assert core.ar_spec(1).evaluate([x, 0.0])[0] == 0.0

    def test_three_term_window(self):
        spec = core.DependenceSpec(
            2,
            1,
            (
                core.MonomialTerm(((0, 0, 1), (1, 0, 1))),
                core.MonomialTerm(((0, 0, 1), (2, 0, 1))),
                core.MonomialTerm(((0, 0, 1), (1, 0, 1), (2, 0, 1))),
            ),
        )
        np.testing.assert_allclose(spec.evaluate([1.0, 2.0, 3.0]), [2.0, 3.0, 6.0])

    def test_window_shape_error(self):
        with pytest.raises(ShapeMismatchError):
            core.ar_spec(1).evaluate([1.0, 2.0, 3.0])

    def test_multilinear_scaling(self):
        assert_verify_passes(verify._check_multilinearity, "eval_multilinearity")


CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300, 0.1]),
    st.integers(-(2**53), 2**53).map(float),
)


@st.composite
def csv_series(draw):
    """A series of 1-300 rows and 1-4 columns, each real or binary; real
    values are any finite float, signed zeros, subnormals, values near
    1e+-300 and integer-valued floats."""
    n, p = draw(st.integers(1, 300)), draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(["real", "binary"]), min_size=p, max_size=p))
    columns = [
        draw(hnp.arrays(float, n, elements=st.sampled_from([0.0, 1.0]) if kind == "binary" else CSV_VALUES))
        for kind in kinds
    ]
    return core.TimeSeries(np.column_stack(columns), kinds=kinds)


class TestTimeSeries:
    def test_basic_properties(self):
        series = core.TimeSeries([[1.0, 0.0], [2.0, 1.0]], kinds=("real", "binary"))
        assert series.n == 2 and series.p == 2
        assert not series.data.flags.writeable

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            core.TimeSeries([1.0, np.nan])

    def test_rejects_nonbinary_values_in_binary_column(self):
        with pytest.raises(ValueError):
            core.TimeSeries([[0.5]], kinds=("binary",))

    def test_fields_cannot_be_reassigned(self):
        series = core.TimeSeries([[1.0, 0.0], [2.0, 1.0]], kinds=("real", "binary"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            series.data = np.zeros((2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            series.kinds = ("real", "real")
        assert series.kinds == ("real", "binary")
        assert len(series) == 2 and repr(series) == "TimeSeries(n=2, p=2, kinds=('real', 'binary'))"

    def test_csv_round_trip(self, tmp_path):
        series = core.TimeSeries(np.random.default_rng(1).standard_normal((17, 2)))
        path = tmp_path / "series.csv"
        series.to_csv(path)
        loaded = core.TimeSeries.from_csv(path)
        np.testing.assert_array_equal(loaded.data, series.data)

    @settings(max_examples=100, deadline=None)
    @given(csv_series())
    def test_csv_bytes_equal_the_per_value_writer(self, tmp_path_factory, series):
        # the writer formats each column once and joins the file in one
        # string; its bytes are those of the join per row it replaced, which
        # wrote repr(float(v)) value by value
        path = tmp_path_factory.mktemp("csv") / "series.csv"
        series.to_csv(path)
        expected = "".join(",".join(map(repr, row)) + "\n" for row in series.data.tolist())
        assert path.read_bytes() == expected.encode("utf-8")
        loaded = core.TimeSeries.from_csv(path, kinds=series.kinds)
        assert loaded.data.shape == series.data.shape
        assert loaded.data.tobytes() == series.data.tobytes()  # -0.0 and subnormals too

    def test_csv_header_autodetect(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("x\n1.5\n2.5\n")
        loaded = core.TimeSeries.from_csv(path)
        np.testing.assert_allclose(loaded.data[:, 0], [1.5, 2.5])

    def test_csv_reading_leaves_the_warnings_filter_alone(self, tmp_path, monkeypatch):
        # the process-wide filter swap is not thread-safe, so a file without
        # data rows is told apart before numpy can warn about it
        def no_filter_swap(*args, **kwargs):
            raise AssertionError("from_csv swapped the warnings filter")

        header_only, rows = tmp_path / "header.csv", tmp_path / "rows.csv"
        header_only.write_text("x,y\n\n# no data\n")
        rows.write_text("x,y\n1.5,2.0\n# a comment\n2.5,3.0\n")
        # undone before pytest reports, which swaps the filter itself
        with monkeypatch.context() as patch:
            patch.setattr(warnings, "catch_warnings", no_filter_swap)
            with pytest.raises(InsufficientDataError, match="holds no data rows"):
                core.TimeSeries.from_csv(header_only)
            loaded = core.TimeSeries.from_csv(rows)
        np.testing.assert_array_equal(loaded.data, [[1.5, 2.0], [2.5, 3.0]])


class TestTotalStatistic:
    def test_two_window_sum(self):
        series = core.TimeSeries([1.0, 2.0, 3.0])
        assert core.total_statistic(core.ar_spec(1), series) == pytest.approx([8.0])

    def test_zero_series(self):
        series = core.TimeSeries(np.zeros(10))
        np.testing.assert_array_equal(core.total_statistic(core.ar_spec(2), series), [0.0, 0.0])

    def test_order_two_spec_sums_shared_windows(self):
        # Both entries are summed over the same t range (order-2 windows),
        # so the lag-1 term skips the first possible product.
        spec = core.DependenceSpec.from_text("0:0^1*1:0^1\n0:0^1*2:0^1\n")
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(core.total_statistic(spec, series), [18.0, 11.0])

    def test_too_short_series(self):
        with pytest.raises(InsufficientDataError):
            core.total_statistic(core.ar_spec(3), core.TimeSeries([1.0, 2.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            core.total_statistic(core.ar_spec(1), core.TimeSeries(np.ones((5, 2))))

    def test_reversal_invariance_ar1(self):
        assert_verify_passes(verify._check_reversal, "statistic_reversal_invariance")


# inputs whose statistics pass ``core._STATISTIC_LIMIT``: (length, scale of
# the N(0, 1) draws of default_rng(0), spec); (b)'s are finite, their squares not
OVERFLOWING = {
    "a": (50, 1e200, "0:0^1*1:0^1"),
    "b": (50, 1e100, "0:0^1*1:0^1"),
    "c": (200, 1e80, "0:0^2*1:0^2"),
}


def overflowing_input(case):
    """The series and spec of ``OVERFLOWING[case]``."""
    n, scale, term = OVERFLOWING[case]
    series = core.TimeSeries(np.random.default_rng(0).standard_normal(n) * scale)
    return series, core.DependenceSpec.from_text(term + "\n")


class TestStatisticsRange:
    """The one rule for statistics (``core._check_finite_statistics``): none
    past sqrt(DBL_MAX) in magnitude, so every square stays finite."""

    SPEC = core.DependenceSpec.from_text("0:0^1*1:0^1\n0:0^1*2:0^1\n")

    def test_values_whose_squares_are_finite_pass(self):
        limit = core._STATISTIC_LIMIT
        assert np.isfinite(limit * limit)
        core._check_finite_statistics(self.SPEC, np.array([[limit, -limit], [0.0, 1.0]]), "pair statistics")
        core._check_finite_statistics(self.SPEC, np.array([-limit, 1e150]), "observed statistics")

    @pytest.mark.parametrize(
        "bad", [np.nextafter(core._STATISTIC_LIMIT, np.inf), -1e200, np.inf, -np.inf, np.nan],
        ids=["next-float", "finite", "inf", "minus-inf", "nan"],
    )
    def test_value_past_the_limit_or_nan_names_its_term(self, bad):
        values = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ParameterDomainError, match=r"^pair statistics of term 0:0\^1\*2:0\^1 .*core\.standard_scale"):
            core._check_finite_statistics(self.SPEC, values, "pair statistics")
        with pytest.raises(ParameterDomainError, match=r"^observed statistics of term 0:0\^1\*1:0\^1 "):
            core._check_finite_statistics(self.SPEC, np.array([bad, bad]), "observed statistics")


class TestSwapDelta:
    def test_equal_values_give_zero(self):
        series = core.TimeSeries([1.0, 4.0, 4.0, 2.0])
        np.testing.assert_array_equal(core.swap_delta(core.ar_spec(1), series, 1, 2), [0.0])

    def test_worked_example(self):
        series = core.TimeSeries([1.0, 2.0, 3.0, 4.0])
        delta = core.swap_delta(core.ar_spec(1), series, 1, 2)
        assert delta == pytest.approx([-3.0])  # H(1,3,2,4) - H(1,2,3,4) = 17 - 20

    def test_matches_full_recompute(self):
        assert_verify_passes(verify._check_swap_recompute, "swap_delta_recompute")

    def test_adjacent_swap_counts_overlap_once(self):
        rng = np.random.default_rng(9)
        spec = core.ar_spec(2)
        data = rng.standard_normal(12)
        series = core.TimeSeries(data)
        delta = core.swap_delta(spec, series, 5, 6)
        order = np.arange(12)
        order[[5, 6]] = order[[6, 5]]
        brute = core.total_statistic(spec, core.TimeSeries(data[order]))
        brute -= core.total_statistic(spec, series)
        np.testing.assert_allclose(delta, brute, atol=1e-12)

    def test_respects_current_order(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal(10)
        series = core.TimeSeries(data)
        spec = core.ar_spec(1)
        order = np.arange(10)
        order[[3, 6]] = order[[6, 3]]
        permuted = core.TimeSeries(data[order])  # the ordering is the series of its rows
        delta = core.swap_delta(spec, permuted, 2, 5)
        after = order.copy()
        after[[2, 5]] = after[[5, 2]]
        brute = core.total_statistic(spec, core.TimeSeries(data[after]))
        brute -= core.total_statistic(spec, permuted)
        np.testing.assert_allclose(delta, brute, atol=1e-12)

    @pytest.mark.parametrize(
        "s1, s2", [(True, 5), (1.5, 5), (2, 5.0), (np.bool_(True), 5)], ids=["bool", "float", "float-s2", "numpy-bool"]
    )
    def test_positions_must_be_integers(self, s1, s2):
        # True would read as position 1, and 1.5 fail as a bare list index
        spec, series = core.ar_spec(1), core.TimeSeries(np.arange(12.0))
        with pytest.raises(BoundaryViolationError, match="^swap indices must be integers, got "):
            core.swap_delta(spec, series, s1, s2)
        np.testing.assert_array_equal(core.swap_delta(spec, series, np.int64(2), np.int64(5)), [-18.0])

    def test_boundary_violations(self):
        series = core.TimeSeries(np.arange(8.0))
        spec = core.ar_spec(2)
        with pytest.raises(BoundaryViolationError):
            core.swap_delta(spec, series, 1, 4)
        with pytest.raises(BoundaryViolationError):
            core.swap_delta(spec, series, 3, 6)
        with pytest.raises(BoundaryViolationError):
            core.swap_delta(spec, series, 4, 4)

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(13)
        spec = core.kron_spec(2, [(1, 1, 1), (2, 1, 2)])
        data = rng.standard_normal((40, 2))
        series = core.TimeSeries(data)
        interior = np.arange(2, 38)
        s1 = rng.choice(interior, size=50)
        s2 = rng.choice(interior, size=50)
        keep = s1 != s2
        lo = np.minimum(s1, s2)[keep]
        hi = np.maximum(s1, s2)[keep]
        batch = core.swap_deltas(spec, series, lo, hi)
        for i in range(len(lo)):
            scalar = core.swap_delta(spec, series, int(lo[i]), int(hi[i]))
            np.testing.assert_allclose(batch[i], scalar, atol=1e-12)


@st.composite
def random_specs(draw):
    """Specs with d in {1, 2, 3}, p in {1, 2} and exponents 1-3.  Each term
    has a lag-0 factor plus up to two more anywhere in the window, so terms
    may hold several components at one lag, skip lags or use lag 0 only;
    one lag-0-only term and one term with two components at one lag are
    added on request."""
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 2))
    comps, exps = st.integers(0, p - 1), st.integers(1, 3)
    factor = st.tuples(st.integers(0, d), comps, exps)
    terms = [
        core.MonomialTerm(((0, c, e), *rest))
        for c, e, rest in draw(
            st.lists(st.tuples(comps, exps, st.lists(factor, max_size=2)), min_size=1, max_size=4)
        )
    ]
    if draw(st.booleans()):
        terms.append(core.MonomialTerm(((0, draw(comps), draw(exps)),)))
    if draw(st.booleans()):
        lag = draw(st.integers(1, d))
        factors = ((0, 0, draw(exps)), (lag, 0, draw(exps)), (lag, p - 1, draw(exps)))
        terms.append(core.MonomialTerm(factors))
    return core.DependenceSpec(order=d, dim=p, terms=tuple(terms))


@st.composite
def kron_binary_specs(draw):
    """``kron_spec`` on two components; column 0 of the series is binary."""
    d = draw(st.integers(1, 3))
    block = st.tuples(st.integers(1, d), st.integers(1, 3), st.integers(1, 3))
    blocks = draw(st.lists(block, min_size=1, max_size=3))
    return core.kron_spec(2, blocks)


@settings(max_examples=25, deadline=None)
@given(random_specs())
def test_numpy_integers_build_the_same_spec(spec):
    # the exchange kernel's cache is keyed on the spec, so a spec from
    # numpy integers must be the same key and hold Python ints
    terms = tuple(core.MonomialTerm(tuple(tuple(map(np.int64, f)) for f in t.factors)) for t in spec.terms)
    wide = core.DependenceSpec(order=np.int64(spec.order), dim=np.int64(spec.dim), terms=terms)
    assert terms == spec.terms and list(map(hash, terms)) == list(map(hash, spec.terms))
    assert wide == spec and hash(wide) == hash(spec)
    ints = [wide.order, wide.dim, *(v for t in terms for f in t.factors for v in f)]
    assert all(type(v) is int for v in ints)
    assert mcle._exchange_kernel(wide) is mcle._exchange_kernel(spec)


@st.composite
def swap_batches(draw, specs, long=False):
    """A spec, a series and pairs that include adjacent (gap 1), near
    (gap d) and far (gap > d) swaps alongside random ones.  With ``long``,
    half the series have an interior of 1000-1050 positions, where the
    pairs are sparse in their span."""
    spec = draw(specs)
    d = spec.order
    n = draw(st.integers(2 * d + 2, 2 * d + 40))
    if long and draw(st.booleans()):
        n = 2 * d + draw(st.integers(1000, 1050))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # values in [-1.5, 1.5] keep the largest monomial (a ninth power) near
    # 40, so the 1e-12 tolerance is ~100 ulps of a summand
    data = rng.uniform(-1.5, 1.5, size=(n, spec.dim))
    kinds = ["real"] * spec.dim
    if spec.dim == 2 and draw(st.booleans()):
        data[:, 0] = rng.integers(0, 2, size=n)
        kinds[0] = "binary"
    series = core.TimeSeries(data, kinds=kinds)
    lo, hi = d, n - d  # interior [lo, hi)
    pairs = draw(st.lists(st.tuples(st.integers(lo, hi - 1), st.integers(lo, hi - 1)), max_size=40))
    pairs = [(a, b) for a, b in pairs if a != b]
    for gap in (1, d, d + 1, hi - lo - 1):
        if 1 <= gap < hi - lo:
            start = draw(st.integers(lo, hi - 1 - gap))
            pairs.append((start, start + gap))
    s1 = np.array([min(a, b) for a, b in pairs])
    s2 = np.array([max(a, b) for a, b in pairs])
    return spec, series, s1, s2


class TestSwapDeltasAgainstScalar:
    """The factored batch path against the direct scalar re-evaluation of
    the at most 2(d + 1) affected windows."""

    @staticmethod
    def check(spec, series, s1, s2):
        batch = core.swap_deltas(spec, series, s1, s2)
        assert batch.shape == (len(s1), spec.n_terms)
        for i in range(len(s1)):
            scalar = core.swap_delta(spec, series, int(s1[i]), int(s2[i]))
            assert np.all(np.abs(batch[i] - scalar) <= 1e-12 * (1.0 + np.abs(scalar)))
        single = core.swap_deltas(spec, series, int(s1[-1]), int(s2[-1]))
        assert single.shape == (1, spec.n_terms)
        scalar = core.swap_delta(spec, series, int(s1[-1]), int(s2[-1]))
        assert np.all(np.abs(single[0] - scalar) <= 1e-12 * (1.0 + np.abs(scalar)))

    @settings(max_examples=60, deadline=None)
    @given(swap_batches(random_specs()))
    def test_random_specs(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(swap_batches(kron_binary_specs()))
    def test_kron_specs_with_binary_column(self, case):
        self.check(*case)

    @pytest.mark.parametrize("s1, s2", [([3, 5], [4, 5]), ([3, 6], [4, 5]), ([1], [4]), ([3], [6])])
    def test_boundary_violations(self, s1, s2):
        series = core.TimeSeries(np.arange(8.0))
        with pytest.raises(BoundaryViolationError):
            core.swap_deltas(core.ar_spec(2), series, s1, s2)

    def test_empty_batch(self):
        series = core.TimeSeries(np.arange(10.0))
        out = core.swap_deltas(core.ar_spec(2), series, [], [])
        assert out.shape == (0, 2)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeMismatchError, match="equal length"):
            core.swap_deltas(core.ar_spec(1), core.TimeSeries(np.arange(10.0)), [2, 3], [5])

    @pytest.mark.parametrize(
        "s1, s2",
        [
            ([1.7, 5.2], [3.9, 9.1]),
            ([True], [3]),
            ([2], np.array([True])),
            ([True, 5], [3, 9]),
            ((np.True_, 4), (3, 9)),
        ],
    )
    def test_non_integer_indices_rejected(self, s1, s2):
        # a cast would read 1.7 as 1 and True as 1, all inside the interior;
        # a bool among ints converts to an integer array
        with pytest.raises(BoundaryViolationError, match="integers"):
            core.swap_deltas(core.ar_spec(1), core.TimeSeries(np.arange(12.0)), s1, s2)


def gathered_windows(table, X, positions):
    """The power columns of the windows centred on ``positions``, (P, 2d + 1,
    Q), gathered by fancy indexing: the reference for the strided views."""
    d = table.order
    return table.powers(X[positions[:, None] + np.arange(-d, d + 1)])


def touched_swap_deltas(spec, series, s1, s2):
    """Swap deltas by the table rule that preceded the cache, kept as the
    reference: tables built per call, over the pairs' span when the batch
    is dense in it and over the touched positions otherwise."""
    table, d, K, B = spec._table, spec.order, spec.n_terms, len(s1)
    first, last = int(s1.min()), int(s2.max())
    if last - first < 2 * B:
        positions, pad, i1, i2 = np.arange(first, last + 1), first, s1, s2
    else:
        positions, inverse = np.unique(np.concatenate([s1, s2]), return_inverse=True)
        pad, i1, i2 = 0, inverse[:B], inverse[B:]
    phi, S = core._factored_tables(table, gathered_windows(table, series.data, positions), pad)
    out = np.empty((B, K))
    for lo in range(0, B, core._SWAP_BLOCK):
        hi = min(lo + core._SWAP_BLOCK, B)
        a, b = i1[lo:hi], i2[lo:hi]
        dphi = [p.take(b) - p.take(a) for p in phi]
        block = np.zeros((K, hi - lo))
        for (k, own, _), s in zip(table.groups, S):
            block[k] += (s.take(a) - s.take(b)) * dphi[own]
        out[lo:hi] = block.T
    near = np.flatnonzero(s2 - s1 <= d)
    if near.size:
        out[near] = core._near_deltas(table, series.data, s1[near], s2[near])
    return out


class TestCachedSwapTables:
    """Rows from the cached whole-interior tables against rows from tables
    built per call by the earlier rule, bitwise, on a cold and on a warm
    cache, on short series and on long ones where the earlier rule built
    the touched positions alone."""

    @staticmethod
    def check(spec, series, s1, s2):
        series = core.TimeSeries(series.data, kinds=series.kinds)  # a new series: the cache is cold
        table, d = spec._table, spec.order
        expected = _bits(touched_swap_deltas(spec, series, s1, s2))
        assert _bits(core.swap_deltas(spec, series, s1, s2)) == expected
        assert table._swap_entry[0]() is series
        # the first rows of the all-pairs design read the same tables
        r1 = min(d + 2, series.n - d - 1)
        rows = [(a, b) for a in range(d, r1) for b in range(a + 1, series.n - d)]
        a, b = (np.array(v, dtype=np.intp) for v in zip(*rows))
        design = core._all_pairs_deltas(spec, series, d, r1)
        assert _bits(design) == _bits(core.swap_deltas(spec, series, a, b)) == _bits(touched_swap_deltas(spec, series, a, b))
        # warm: nothing is rebuilt
        with mock.patch.object(core, "_factored_tables", side_effect=AssertionError("rebuilt")):
            assert _bits(core._all_pairs_deltas(spec, series, d, r1)) == _bits(design)
            assert _bits(core.swap_deltas(spec, series, s1, s2)) == expected

    @settings(max_examples=60, deadline=None)
    @given(swap_batches(random_specs(), long=True))
    def test_random_specs(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(swap_batches(kron_binary_specs(), long=True))
    def test_kron_specs_with_binary_column(self, case):
        self.check(*case)

    def test_one_entry_per_spec_table(self):
        spec, rng = core.ar_spec(2), np.random.default_rng(4)
        first, second = (core.TimeSeries(rng.standard_normal(40)) for _ in range(2))
        with mock.patch.object(core, "_factored_tables", wraps=core._factored_tables) as build:
            for series in (first, first, second, second, first):
                core.swap_deltas(spec, series, [2, 5], [9, 30])
                core._all_pairs_deltas(spec, series, 2, 10)
        # one build per change of series, each replacing the one entry
        assert build.call_count == 3
        key, (phi, S) = spec._table._swap_entry
        assert key() is first and len(phi) == len(spec._table.owns) and len(S) == len(spec._table.groups)
        assert all(column.shape == (38,) and not column.flags.writeable for column in phi + S)
        assert core.ar_spec(2)._table._swap_entry is None  # an equal spec has its own table

    def test_threads_sharing_a_spec_get_their_own_series_rows(self):
        # more threads than cores, switching every microsecond: each thread
        # alternates two series through one spec's one-entry cache
        spec = core.kron_spec(2, [(1, 1, 1), (1, 2, 2)])
        rng = np.random.default_rng(6)
        series = [core.TimeSeries(rng.uniform(-1.5, 1.5, size=(300, 2))) for _ in range(8)]
        s1, s2 = np.arange(1, 150), np.arange(150, 299)
        serial = [_bits(core.swap_deltas(spec, data, s1, s2)) for data in series]
        rows = [[] for _ in range(4)]

        def run(i):
            for _ in range(50):
                for j in (2 * i, 2 * i + 1):
                    rows[i].append((j, _bits(core.swap_deltas(spec, series[j], s1, s2))))

        workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert all(len(done) == 100 and all(got == serial[j] for j, got in done) for done in rows)

    def test_tables_are_freed_with_the_series(self):
        spec = core.ar_spec(1)
        series = core.TimeSeries(np.random.default_rng(5).standard_normal(50))
        core.swap_deltas(spec, series, [3], [20])
        column = weakref.ref(spec._table._swap_entry[1][1][0])
        assert column() is not None
        del series
        gc.collect()
        assert column() is None and spec._table._swap_entry is None


@st.composite
def window_cases(draw):
    """A spec of order 1-4 on p = 1 or 2 components with exponents 1-4, and
    a series from d + 1 to d + 60 rows (so as short as one window) whose
    column 0 is binary in half the two-component draws."""
    d = draw(st.integers(1, 4))
    p = draw(st.integers(1, 2))
    comps, exps = st.integers(0, p - 1), st.integers(1, 4)
    factor = st.tuples(st.integers(0, d), comps, exps)
    terms = tuple(
        core.MonomialTerm(((0, c, e), *rest))
        for c, e, rest in draw(st.lists(st.tuples(comps, exps, st.lists(factor, max_size=2)), min_size=1, max_size=4))
    )
    spec = core.DependenceSpec(order=d, dim=p, terms=terms)
    n = d + draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(-1.5, 1.5, size=(n, p))
    kinds = ["real"] * p
    if p == 2 and draw(st.booleans()):
        data[:, 0] = rng.integers(0, 2, size=n)
        kinds[0] = "binary"
    return spec, core.TimeSeries(data, kinds=kinds)


def gathered_window_statistics(spec, series):
    """Per-window statistics with the windows gathered by fancy indexing:
    the reference for the strided view of ``core.window_statistics``."""
    d, table = spec.order, spec._table
    t = np.arange(d, series.n)
    return table.evaluate(table.powers(series.data)[t[:, None] - np.arange(d + 1)])


class TestStridedWindows:
    """The strided window views against the gathers they replaced, bit for
    bit: the per-window statistics, and the whole-interior swap tables
    against ``_factored_tables`` on the gathered windows of every interior
    position, as ``touched_swap_deltas`` builds them."""

    @settings(max_examples=80, deadline=None)
    @given(window_cases())
    def test_window_statistics_equal_the_gather(self, case):
        spec, series = case
        got = core.window_statistics(spec, series)
        assert got.shape == (series.n - spec.order, spec.n_terms)
        assert _bits(got) == _bits(gathered_window_statistics(spec, series))

    @settings(max_examples=80, deadline=None)
    @given(window_cases())
    def test_swap_tables_equal_the_gathered_build(self, case):
        spec, series = case
        table, d = spec._table, spec.order
        assume(series.n - 2 * d >= 1)
        series = core.TimeSeries(series.data, kinds=series.kinds)  # a new series: the cache is cold
        phi, S = table._swap_tables(series)
        positions = np.arange(d, series.n - d)
        ref_phi, ref_S = core._factored_tables(table, gathered_windows(table, series.data, positions), d)
        assert len(phi) == len(ref_phi) and len(S) == len(ref_S)
        for got, ref in zip(phi + S, ref_phi + ref_S):
            assert got.shape == (series.n - d,) and _bits(got) == _bits(ref)

    @pytest.mark.parametrize("n, q, width", [(6, 2, 3), (5, 1, 5), (9, 3, 1), (40, 4, 9)])
    def test_window_is_numpys_sliding_window_view(self, n, q, width):
        values = np.arange(n * q, dtype=float).reshape(n, q) ** 2
        windows = core._windows(values, width)
        assert np.shares_memory(windows, values) and not windows.flags.writeable
        expected = np.lib.stride_tricks.sliding_window_view(values, width, axis=0).transpose(0, 2, 1)
        assert windows.shape == expected.shape == (n - width + 1, width, q)
        np.testing.assert_array_equal(windows, expected)


@st.composite
def design_rows(draw, specs):
    """A spec, a series, a tile height and the rows [r0, r1) of its
    all-pairs design.  The interior spans up to two tiles and a few rows,
    so rows fall on both sides of a tile edge and near pairs straddle it;
    half the draws take every row, the rest a random sub-range."""
    spec = draw(specs)
    d = spec.order
    tile = draw(st.sampled_from([1, 2, 3, core._PAIR_TILE_ROWS]))
    n = 2 * d + 2 + draw(st.integers(0, 2 * tile + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.uniform(-1.5, 1.5, size=(n, spec.dim))
    kinds = ["real"] * spec.dim
    if spec.dim == 2 and draw(st.booleans()):
        data[:, 0] = rng.integers(0, 2, size=n)
        kinds[0] = "binary"
    last = n - d - 1  # rows s1 = d .. last - 1
    r0, r1 = d, last
    if draw(st.booleans()):
        r0 = draw(st.integers(d, last))
        r1 = draw(st.integers(r0, last))
    return spec, core.TimeSeries(data, kinds=kinds), tile, r0, r1


class TestAllPairsDesign:
    """The row-tile build of the all-pairs design against the batch path on
    the explicit lexicographic pair list (bitwise) and the scalar window
    re-evaluation (1e-12)."""

    @staticmethod
    def check(spec, series, tile, r0, r1):
        hi = series.n - spec.order
        pairs = [(a, b) for a in range(r0, r1) for b in range(a + 1, hi)]
        s1 = np.array([a for a, _ in pairs], dtype=np.intp)
        s2 = np.array([b for _, b in pairs], dtype=np.intp)
        with mock.patch.object(core, "_PAIR_TILE_ROWS", tile):
            design = core._all_pairs_deltas(spec, series, r0, r1)
        assert design.shape == (len(pairs), spec.n_terms)
        np.testing.assert_array_equal(design, core.swap_deltas(spec, series, s1, s2))
        for row, (a, b) in zip(design, pairs):
            scalar = core.swap_delta(spec, series, a, b)
            assert np.all(np.abs(row - scalar) <= 1e-12 * (1.0 + np.abs(scalar)))

    @settings(max_examples=60, deadline=None)
    @given(design_rows(random_specs()))
    def test_random_specs(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(design_rows(kron_binary_specs()))
    def test_kron_specs_with_binary_column(self, case):
        self.check(*case)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rows_wider_than_a_tile_bitwise(self, d):
        # past 1024 pairs a row a tile takes fewer than 32 rows (one past
        # 16384), so the row ranges below are cut into tiles of 1 row, of
        # 1 and then 2 rows, and of 20 rising to 32 rows
        n = 2 * d + 33002
        rng = np.random.default_rng(d)
        series = core.TimeSeries(rng.uniform(-1.5, 1.5, size=(n, 1)))
        spec = core.ar_spec(d)
        hi = n - d
        for r0, r1 in [(d, d + 4), (hi - 16390, hi - 16380), (hi - 1600, hi - 1000)]:
            s1 = np.repeat(np.arange(r0, r1), hi - 1 - np.arange(r0, r1))
            s2 = np.concatenate([np.arange(a + 1, hi) for a in range(r0, r1)])
            design = core._all_pairs_deltas(spec, series, r0, r1)
            assert _bits(design) == _bits(core.swap_deltas(spec, series, s1, s2))

    @pytest.mark.parametrize("r0, r1", [(1, 3), (2, 6), (4, 3), (5, 6)])
    def test_rows_outside_the_interior_rejected(self, r0, r1):
        # n = 8, d = 2: interior [2, 6), rows s1 = 2 .. 4
        series = core.TimeSeries(np.arange(8.0))
        with pytest.raises(BoundaryViolationError):
            core._all_pairs_deltas(core.ar_spec(2), series, r0, r1)


class TestAllPairsBlocks:
    """The all-pairs generator: its blocks, at any chunk size and stride,
    are every stride-th row of the lexicographic design, bitwise, cut by
    one rule: runs of whole rows, each closed at the first row that brings
    it to ``chunk`` kept pairs."""

    @staticmethod
    def check_runs(sizes, rows, chunk):
        """Blocks of ``sizes`` kept pairs, ``rows`` the s1 of each kept pair."""
        ends = np.cumsum(sizes)
        assert min(sizes) > 0  # a run that keeps no pair yields nothing
        assert all(rows[e - 1] != rows[e] for e in ends[:-1])  # whole rows
        assert all(size >= chunk for size in sizes[:-1])
        for start, end in zip(ends - sizes, ends):
            # before its last row a block held fewer than ``chunk`` pairs
            # (none at chunk 0, where every run is one row)
            last = np.count_nonzero(rows[start:end] == rows[end - 1])
            assert end - start - last < max(chunk, 1)

    @settings(max_examples=40, deadline=None)
    @given(design_rows(random_specs()), st.integers(0, 300), st.sampled_from([1, 2, 7, 64]))
    def test_blocks_are_every_stride_th_row(self, case, chunk, stride):
        spec, series, _, _, _ = case
        lo, hi = spec.order, series.n - spec.order
        s1, s2 = np.triu_indices(hi - lo, 1)
        design = core.swap_deltas(spec, series, s1 + lo, s2 + lo)
        blocks = list(core._all_pairs_blocks(spec, series, chunk, stride))
        np.testing.assert_array_equal(np.concatenate(blocks), design[::stride])
        self.check_runs(np.array([len(b) for b in blocks]), s1[::stride], chunk)

    @pytest.mark.parametrize("chunk, sizes", [(0, [2, 1, 1, 1, 1, 1]), (1, [2, 1, 1, 1, 1, 1]), (2, [2, 2, 2, 1])])
    def test_last_rows_keeping_no_pair(self, chunk, sizes):
        # AR(1), n = 12: rows s1 = 1 .. 9 hold 9, 8, ..., 1 pairs, so the
        # pair numbers 0, 7, ..., 42 of stride 7 fall in rows 1, 1, 2, 3,
        # 4, 6 and 8; rows 5, 7 and 9, the last, keep none
        spec, series = core.ar_spec(1), core.TimeSeries(np.random.default_rng(3).standard_normal(12))
        blocks = list(core._all_pairs_blocks(spec, series, chunk, 7))
        assert [len(b) for b in blocks] == sizes
        s1, s2 = np.triu_indices(10, 1)
        np.testing.assert_array_equal(np.concatenate(blocks), core.swap_deltas(spec, series, s1[::7] + 1, s2[::7] + 1))
        self.check_runs(np.array(sizes), s1[::7] + 1, chunk)

    def test_interior_checked_on_the_first_block(self):
        blocks = core._all_pairs_blocks(core.ar_spec(2), core.TimeSeries(np.arange(5.0)), 10)
        with pytest.raises(InsufficientInteriorError):
            next(blocks)


class TestUniformPairs:
    def test_same_draw_as_offsets_from_zero(self):
        # a over the m positions, b over the m - 1 others, b += b >= a
        s1, s2 = core._uniform_pairs(np.random.default_rng(7), 3, 20, 5000)
        rng = np.random.default_rng(7)
        a, b = rng.integers(0, 17, size=5000), rng.integers(0, 16, size=5000)
        b += b >= a
        np.testing.assert_array_equal(s1, np.minimum(a, b) + 3)
        np.testing.assert_array_equal(s2, np.maximum(a, b) + 3)

    def test_pairs_are_distinct_and_uniform(self):
        lo, hi, size = 2, 7, 100_000
        s1, s2 = core._uniform_pairs(np.random.default_rng(11), lo, hi, size)
        assert np.all((lo <= s1) & (s1 < s2) & (s2 < hi))
        counts = np.bincount((s1 - lo) * (hi - lo) + (s2 - lo), minlength=(hi - lo) ** 2)
        counts = counts[counts > 0]
        assert len(counts) == 10  # every one of the C(5, 2) pairs
        expected = size / 10
        assert np.all(np.abs(counts - expected) <= 5.0 * np.sqrt(expected))


@st.composite
def permuted_swaps(draw, specs):
    """A swap batch (as :func:`swap_batches`) on a random interior
    permutation of the series, plus, for every gap 1 .. d that fits, the
    near pairs at the first and at the last interior start."""
    spec, series, s1, s2 = draw(swap_batches(specs))
    d, n = spec.order, series.n
    order = np.arange(n)
    order[d : n - d] = d + np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(n - 2 * d)
    fits = range(1, min(d, n - 2 * d - 1) + 1)  # gap 1 always fits: n >= 2d + 2
    near = np.array([(a, a + gap) for gap in fits for a in (d, n - d - 1 - gap)])
    s1, s2 = np.concatenate([s1, near[:, 0]]), np.concatenate([s2, near[:, 1]])
    return spec, core.TimeSeries(series.data[order], kinds=series.kinds), s1, s2


def _segment_moves(spec, series, pairs):
    """The running statistic after the chain's compiled ``segment`` makes the
    moves ``pairs`` in turn on the ordering of ``series``, read off the
    chain's statistic path from -0.0: theta 0 and log u = -inf accept every
    move, and -0.0 + x == x bit for bit, so one move returns each term's
    entry, its swap delta."""
    K = spec.n_terms
    proposals = [(j, a, b, -np.inf) for j, (a, b) in enumerate(pairs)]
    table = np.full((K, len(pairs)), np.nan)
    deltas = [memoryview(row) for row in table]
    columns = mcle._chain_columns(spec, series.data)
    mcle._exchange_kernel(spec)(columns, [0.0] * K, proposals, deltas)
    path, accepted = mcle._statistic_path(table, [-0.0] * K)
    assert accepted == len(pairs)
    return path[-1]


class TestExchangeStepAgainstScalar:
    """One move of the exchange chain's compiled ``segment`` on a permuted
    ordering against ``swap_delta`` on the permuted series: the factored
    form for far pairs, the unrolled direct re-evaluation (bit for bit) for
    near ones, every gap 1 .. d at both ends of the interior included.
    The reverse move cancels it."""

    @staticmethod
    def check(spec, series, s1, s2):
        d = spec.order
        for a, b in zip(s1.tolist(), s2.tolist()):
            scalar = core.swap_delta(spec, series, a, b)
            step = _segment_moves(spec, series, [(a, b)])
            if b - a <= d:
                assert _bits(step) == _bits(scalar)
            else:
                assert np.all(np.abs(step - scalar) <= 1e-12 * (1.0 + np.abs(scalar)))
            # a term fed by several groups sums their exactly negated parts
            # in a different rounding, so the round trip is 0 to rounding
            back = _segment_moves(spec, series, [(a, b), (a, b)])
            assert np.all(np.abs(back) <= 1e-12 * (1.0 + np.abs(step)))

    @settings(max_examples=60, deadline=None)
    @given(permuted_swaps(random_specs()))
    def test_random_specs(self, case):
        self.check(*case)

    @settings(max_examples=30, deadline=None)
    @given(permuted_swaps(kron_binary_specs()))
    def test_kron_specs_with_binary_column(self, case):
        self.check(*case)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_reverse_move_restores_the_statistic_on_ar(self, d):
        # one group per term: the reverse move's delta is the exact negative
        rng = np.random.default_rng(d)
        n = 30
        data = rng.standard_normal(n)
        order = np.concatenate([np.arange(d), d + rng.permutation(n - 2 * d), np.arange(n - d, n)])
        series = core.TimeSeries(data[order])
        for a in range(d, n - d - 1):
            for b in range(a + 1, n - d):
                back = _segment_moves(core.ar_spec(d), series, [(a, b), (a, b)])
                assert np.all(back == 0.0)

    def test_plan_is_compiled_once_per_spec(self):
        spec = core.ar_spec(2)
        assert spec._table is spec._table
        # x_t * x_{t-k}: one own product x, read at the neighbours i -+ k
        assert spec._table.owns == ((0,),)
        assert spec._table.groups == ((0, 0, (((-1, 0),), ((1, 0),))), (1, 0, (((-2, 0),), ((2, 0),))))


def _bits(values):
    """Bit patterns of a sequence of floats (tells -0.0 from 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


class TestKronSpec:
    def test_scalar_reduces_to_ar1(self):
        assert core.kron_spec(1, [(1, 1, 1)]) == core.ar_spec(1)

    def test_bivariate_single_lag(self):
        spec = core.kron_spec(2, [(1, 1, 1)])
        labels = [t.label() for t in spec.terms]
        assert labels == ["0:0^1*1:0^1", "0:0^1*1:1^1", "0:1^1*1:0^1", "0:1^1*1:1^1"]

    def test_sixteen_term_extension(self):
        spec = core.kron_spec(2, [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2)])
        assert spec.n_terms == 16
        assert spec.terms[4].label() == "0:0^1*1:0^2"
        assert spec.terms[8].label() == "0:0^2*1:0^1"
        assert spec.terms[15].label() == "0:1^2*1:1^2"

    def test_vectorization_order_matches_column_stacking(self):
        # theta[i*p + j] multiplies x_{t,i} * x_{t-1,j}, i.e. the (j, i)
        # entry of the coefficient matrix: kron order == vec-by-columns.
        spec = core.kron_spec(2, [(1, 1, 1)])
        win = np.array([[2.0, 3.0], [5.0, 7.0]])
        vals = spec.evaluate(win)
        expected = np.kron(win[0], win[1])
        np.testing.assert_allclose(vals, expected)

    def test_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            core.kron_spec(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            core.kron_spec(2, [])


class TestStandardScale:
    def test_two_point_column(self):
        scaled = core.standard_scale(core.TimeSeries([0.0, 2.0]))
        np.testing.assert_array_equal(scaled.data[:, 0], [-1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        series = core.TimeSeries(rng.standard_normal(50))
        once = core.standard_scale(series)
        twice = core.standard_scale(once)
        np.testing.assert_allclose(once.data, twice.data, atol=1e-12)

    def test_binary_passthrough(self):
        series = core.TimeSeries(
            [[0.0, 1.0], [1.0, 2.0], [1.0, 3.0], [0.0, 4.0]], kinds=("binary", "real")
        )
        scaled = core.standard_scale(series)
        np.testing.assert_array_equal(scaled.data[:, 0], series.data[:, 0])
        assert scaled.data[:, 1].mean() == pytest.approx(0.0, abs=1e-12)

    def test_constant_column_rejected(self):
        with pytest.raises(DegenerateScaleError):
            core.standard_scale(core.TimeSeries([3.0, 3.0, 3.0]))

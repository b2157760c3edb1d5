"""Unit tests for the Newton interpolator and point spreading, plus
property tests pinning the batched curve-fit scorer to the scalar one
and the compiled scorer to the Python one."""

import gc
import math
import re
import sys
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.backend import native_or_none
from repro.core.cost import (
    _clamped,
    cost_function,
    cost_order,
    cost_over,
    cost_values,
)
from repro.core.curvefit import NewtonCurves, NewtonInterpolator, spread_points
from repro.core.dynlen import _score_candidates
from repro.errors import AnalysisError

from tests.test_properties import small_system

#: WCRT-like values: macrotick response times of a Fig. 9 system.
wcrt_values = st.integers(0, 10**6)


@st.composite
def shared_node_curves(draw):
    """``(nodes, rows, xs)``: 1-24 distinct integer nodes (24 is the
    default ``cf_max_points``), rows of WCRT-like values -- constant and
    linear rows among them, so coefficient trimming fires -- and
    integer evaluation points."""
    nodes = draw(
        st.lists(st.integers(0, 8000), min_size=1, max_size=24, unique=True)
    )
    rows = []
    for kind in draw(
        st.lists(st.sampled_from(("constant", "linear", "free")), min_size=1, max_size=6)
    ):
        if kind == "constant":
            rows.append([draw(wcrt_values)] * len(nodes))
        elif kind == "linear":
            base = draw(wcrt_values)
            slope = draw(st.integers(-40, 40))
            rows.append([base + slope * x for x in nodes])
        else:
            rows.append(
                draw(st.lists(wcrt_values, min_size=len(nodes), max_size=len(nodes)))
            )
    xs = draw(st.lists(st.integers(0, 8000), min_size=1, max_size=20))
    return nodes, rows, xs


class TestNewtonCurves:
    @given(shared_node_curves())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_is_bit_identical_to_the_scalar_interpolator(self, case):
        nodes, rows, xs = case
        curves = NewtonCurves(len(rows))
        for k, x in enumerate(nodes):
            curves.add_point(x, [row[k] for row in rows])
        expected = [
            [NewtonInterpolator(nodes, row)(x).hex() for x in xs] for row in rows
        ]
        got = [[v.hex() for v in row] for row in curves.evaluate(xs)]
        assert got == expected

    def test_constant_and_linear_rows(self):
        curves = NewtonCurves(2)
        for x in (0, 10, 30, 70):
            curves.add_point(x, [42, 5 + 2 * x])
        assert curves.evaluate([5, 100]) == [[42.0, 42.0], [15.0, 205.0]]
        assert len(curves) == 4

    def test_rejects_duplicate_node_and_wrong_width(self):
        curves = NewtonCurves(2)
        curves.add_point(1, [1, 2])
        with pytest.raises(AnalysisError, match="duplicate"):
            curves.add_point(1, [3, 4])
        with pytest.raises(AnalysisError, match="expected 2 values"):
            curves.add_point(2, [3])

    def test_rejects_empty_evaluation(self):
        with pytest.raises(AnalysisError):
            NewtonCurves(1).evaluate([3])

    def test_rows_offset_by_an_int_share_their_tail(self):
        nodes = [0, 3, 7, 12]
        base = [5, 90, 14, 300]
        rows = [base, [y + 17 for y in base], [y - 4 for y in base], [1, 2, 3, 9]]
        curves = _curves(nodes, rows)
        tails = curves._tails
        assert tails[0] == tails[1] == tails[2] != tails[3]
        _assert_matches_scalar(curves, nodes, rows, [1, 5, 20, 9000])

    @pytest.mark.parametrize(
        "rows",
        [
            # Float values offset by a constant: no sharing, whatever
            # the coefficients.
            [[1.5, 2.5, 4.0], [2.5, 3.5, 5.0]],
            # Equal coefficients but for the sign of a zero: c1 is -0.0
            # in the first row and 0.0 in the second.
            [[0.0, -0.0, 1.0], [0.0, 0.0, 1.0]],
            # Ints that do not convert to floats exactly.
            [[2**60, 2**60 + 1, 2**60 + 5], [2**60 + 2, 2**60 + 3, 2**60 + 7]],
        ],
        ids=["float-ys", "signed-zero", "inexact-ints"],
    )
    def test_rows_without_exact_int_values_do_not_share(self, rows):
        nodes = [0, 1, 2]
        curves = _curves(nodes, rows)
        assert curves._tails == [None, None]
        _assert_matches_scalar(curves, nodes, rows, [0, 1, 3, -2, 0.5])

    def test_signed_zero_coefficients_stay_apart(self):
        curves = _curves([0, 1, 2], [[0.0, -0.0, 1.0], [0.0, 0.0, 1.0]])
        first, second = curves._coeffs
        assert first == second
        assert [c.hex() for c in first] != [c.hex() for c in second]


def _curves(nodes, rows):
    curves = NewtonCurves(len(rows))
    for k, x in enumerate(nodes):
        curves.add_point(x, [row[k] for row in rows])
    return curves


def _assert_matches_scalar(curves, nodes, rows, xs):
    expected = [
        [NewtonInterpolator(nodes, row)(x).hex() for x in xs] for row in rows
    ]
    assert [[v.hex() for v in row] for row in curves.evaluate(xs)] == expected


@st.composite
def scorer_cases(draw):
    """``(curves, deadlines, lengths)`` for one estimate round: 2-24
    nodes; constant, all-zero, linear, free, wild (far below 0 and above
    10**12) rows, and rows offset from an earlier row by an int (a
    shared Horner tail); deadlines and distinct open lengths."""
    nodes = draw(
        st.lists(st.integers(0, 8000), min_size=2, max_size=24, unique=True)
    )
    width = len(nodes)
    rows = []
    kinds = ("constant", "zero", "linear", "free", "wild", "shifted")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "shifted" and rows:
            offset = draw(st.integers(-10**6, 10**6))
            rows.append([y + offset for y in draw(st.sampled_from(rows))])
        elif kind == "constant":
            rows.append([draw(wcrt_values)] * width)
        elif kind == "zero":
            rows.append([0] * width)
        elif kind == "linear":
            base = draw(wcrt_values)
            slope = draw(st.integers(-40, 40))
            rows.append([base + slope * x for x in nodes])
        else:
            values = wcrt_values if kind == "free" else st.integers(-10**13, 10**13)
            rows.append(draw(st.lists(values, min_size=width, max_size=width)))
    deadlines = draw(
        st.lists(st.integers(0, 2 * 10**6), min_size=len(rows), max_size=len(rows))
    )
    lengths = draw(
        st.lists(st.integers(0, 8000), min_size=1, max_size=64, unique=True)
    )
    return _curves(nodes, rows), deadlines, lengths


def _scores_hex(scores):
    scored, estimates = scores
    return (
        [(cost.hex(), n) for cost, n in scored],
        [(n, cost.hex()) for n, cost in estimates],
    )


def _c_costs(native, curves, deadlines, lengths):
    return native.score_curves(
        *curves.packed(), array("q", deadlines), array("d", lengths)
    )


@pytest.mark.native
@pytest.mark.skipif(
    native_or_none() is None, reason="needs the compiled repro[native] extra"
)
class TestNativeScorer:
    """The C curve-fit scorer against ``_score_candidates``' Python
    path, by ``float.hex``."""

    @given(scorer_cases())
    @settings(max_examples=300, deadline=None)
    def test_costs_equal_the_python_scorer(self, case):
        curves, deadlines, lengths = case
        native = native_or_none()
        expected = _score_candidates(lengths, {}, curves, deadlines)
        costs = _c_costs(native, curves, deadlines, lengths)
        assert costs is not None
        assert [c.hex() for c in costs] == [c.hex() for _, c in expected[1]]
        got = _score_candidates(lengths, {}, curves, deadlines, native)
        assert _scores_hex(got) == _scores_hex(expected)

    def test_rounds_half_to_even_and_clamps(self):
        # Row 0 is x / 2 (halves at odd x), row 1 dives below zero, row 2
        # climbs past 10**12.
        curves = _curves(
            [0, 2, 4],
            [[0, 1, 2], [100, 0, -100], [10**12 - 8, 10**12, 10**12 + 8]],
        )
        lengths = [1, 3, 5, 7, 40]
        deadlines = [1, 50, 10**12 - 20]
        rows = curves.evaluate(lengths)
        assert [_clamped(row) for row in rows] == [
            [0, 2, 2, 4, 20],
            [50, 0, 0, 0, 0],
            [10**12 - 4] + [10**12] * 4,
        ]
        expected = cost_values(deadlines, rows)
        assert _hexes(expected) == _hexes(_oracle_costs(deadlines, rows))
        costs = _c_costs(native_or_none(), curves, deadlines, lengths)
        assert [c.hex() for c in costs] == [c.hex() for c in expected]

    @pytest.mark.parametrize(
        "rows",
        [[[1e308, -1e308, 1e308]], [[0.0, 1e308, -1e308]]],
        ids=["inf", "nan"],
    )
    def test_non_finite_values_go_back_to_python(self, rows):
        curves = _curves([0, 1, 2], rows)
        native = native_or_none()
        lengths = [0, 7]
        assert _c_costs(native, curves, [5], lengths) is None
        with pytest.raises((ValueError, OverflowError)) as python:
            _score_candidates(lengths, {}, curves, [5])
        with pytest.raises(python.type, match=re.escape(str(python.value))):
            _score_candidates(lengths, {}, curves, [5], native)

    @pytest.mark.parametrize(
        "deadlines", [[-(2**62)] * 3, [2**70, 1, 1]], ids=["int64-sum", "wide"]
    )
    def test_int64_overflow_goes_back_to_python(self, deadlines):
        curves = _curves([0, 5], [[1, 2], [3, 4], [5, 6]])
        native = native_or_none()
        lengths = [1, 2, 9]
        if deadlines[0] < 0:
            assert _c_costs(native, curves, deadlines, lengths) is None
        expected = _score_candidates(lengths, {}, curves, deadlines)
        got = _score_candidates(lengths, {}, curves, deadlines, native)
        assert _scores_hex(got) == _scores_hex(expected)


    def test_calls_keep_references_and_memory(self):
        """2,000 calls each on the list path and the hand-back path leave
        every argument buffer's refcount where it started and no block
        allocated (a leaked result list or float would stay)."""
        native = native_or_none()
        costed = [
            *_curves([0, 3, 9], [[1, 5, 2], [4, 8, 5]]).packed(),
            array("q", [3, 4]),
            array("d", [1, 2, 20]),
        ]
        handed_back = [
            *_curves([0, 1, 2], [[0.0, 1e308, -1e308]]).packed(),
            array("q", [5]),
            array("d", [0, 7]),
        ]
        watched = costed + handed_back
        before = [sys.getrefcount(obj) for obj in watched]
        gc.collect()
        blocks = sys.getallocatedblocks()
        for _ in range(2000):
            native.score_curves(*costed)
            native.score_curves(*handed_back)
        gc.collect()
        assert sys.getallocatedblocks() - blocks < 500
        assert [sys.getrefcount(obj) for obj in watched] == before
        assert len(native.score_curves(*costed)) == 3
        assert native.score_curves(*handed_back) is None

    def test_rejects_inconsistent_buffers(self):
        native = native_or_none()
        coeffs, tops, nodes = _curves([0, 3], [[1, 5], [4, 8]]).packed()
        deadlines, xs = array("q", [3, 4]), array("d", [1])
        with pytest.raises(ValueError, match="sizes"):
            native.score_curves(coeffs, tops, nodes, array("q", [3]), xs)
        with pytest.raises(ValueError, match="top"):
            native.score_curves(coeffs, array("q", [0, 2]), nodes, deadlines, xs)


def _oracle_costs(deadlines, rows):
    """Eq. (5) per candidate over every row rounded and clamped first
    (so a value that is not finite raises from the first row holding
    one), through :func:`cost_over`."""
    columns = [_clamped(row) for row in rows]
    order = [(f"a{i}", d) for i, d in enumerate(deadlines)]
    width = len(rows[0]) if rows else 0
    return [
        cost_over(order, {f"a{i}": col[k] for i, col in enumerate(columns)}).value
        for k in range(width)
    ]


def _hexes(values):
    return [v.hex() for v in values]


def _outcome(scorer, deadlines, rows):
    """The scorer's cost hexes, or its exception's type and message."""
    try:
        return _hexes(scorer(deadlines, rows))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


#: Fractions added to integer draws: halves exercise round half to even.
fractions = st.sampled_from((0.0, 0.5, -0.5, 0.25, -0.25, 0.49999999999999994))
#: Deadlines: WCRT-like, negative, and at the high clamp.
round_deadlines = st.one_of(
    st.integers(0, 2 * 10**6),
    st.integers(-10**6, -1),
    st.sampled_from((0, 10**12 - 1, 10**12, 10**12 + 1)),
)


@st.composite
def estimate_rounds(draw):
    """``(deadlines, rows)`` of one estimate round: float rows that
    never miss their deadline, always miss it or miss it at some
    candidates; rows past 10**12, negative, constant, overflowing their
    float sum, and rows with an inf or a NaN hidden among them."""
    width = draw(st.integers(1, 8))
    deadlines, rows = [], []
    kinds = (
        "never", "always", "mixed", "huge", "negative", "constant",
        "overflow", "poisoned",
    )
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=8)):
        d = draw(round_deadlines)
        lo, hi = {
            "never": (min(d, 0) - 10**6, d),
            "always": (d + 1, d + 10**6),
            "huge": (10**12 - 10**3, 10**13),
            "negative": (-(10**13), 0),
        }.get(kind, (d - 10**6, d + 10**6))
        values = [
            float(draw(st.integers(lo, hi))) + draw(fractions)
            for _ in range(width)
        ]
        if kind == "constant":
            values = [values[0]] * width
        elif kind == "overflow":
            values = [draw(st.sampled_from((1e308, -1e308)))] * width
        elif kind == "poisoned":
            bad = draw(st.sampled_from((math.inf, -math.inf, math.nan)))
            values[draw(st.integers(0, width - 1))] = bad
        deadlines.append(d)
        rows.append(values)
    return deadlines, rows


class TestCostValues:
    @given(small_system(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_columns_match_cost_function(self, system, data):
        """Eq. (5) over float estimate rows equals ``cost_function`` per
        candidate over the rounded, clamped values, deadline misses and
        all-met candidates alike."""
        app = system.application
        order = cost_order(app)
        width = data.draw(st.integers(1, 6))
        rows = [
            [
                float(data.draw(st.integers(0, 2 * d))) + data.draw(fractions)
                for _ in range(width)
            ]
            for _, d in order
        ]
        expected = [
            cost_function(
                app,
                {name: _clamped(row)[k] for (name, _), row in zip(order, rows)},
            ).value
            for k in range(width)
        ]
        got = cost_values([d for _, d in order], rows)
        assert _hexes(got) == _hexes(expected)

    @given(estimate_rounds())
    @settings(max_examples=500, deadline=None)
    def test_costs_equal_the_per_candidate_oracle(self, case):
        """Every cost equals Eq. (5) over the clamped values by
        ``float.hex``; a round holding an inf or a NaN raises the same
        type and message as rounding every row first."""
        deadlines, rows = case
        assert _outcome(cost_values, deadlines, rows) == _outcome(
            _oracle_costs, deadlines, rows
        )

    def test_f2_only_where_no_row_misses(self):
        # Candidate 1 misses (12 > 10); 9.5 rounds half to even to 10,
        # which meets the deadline, so candidates 0 and 2 cost their f2.
        deadlines = [10, 10]
        rows = [[5.0, 12.0, 9.5], [1.0, 2.0, 3.0]]
        assert cost_values(deadlines, rows) == [-14.0, 2.0, -7.0]
        assert _oracle_costs(deadlines, rows) == [-14.0, 2.0, -7.0]

    def test_clamps_and_negative_deadlines(self):
        # A negative deadline: the low clamp makes every value a miss.
        # Past 10**12 the high clamp caps the miss.
        deadlines = [-3, 10**12 - 1, 5]
        rows = [[-7.0, 2.0], [2e12, 5.0], [1e308, 1e308]]
        expected = [3.0 + 1.0 + (10**12 - 5), 5.0 + 10**12 - 5]
        assert cost_values(deadlines, rows) == expected
        assert _hexes(_oracle_costs(deadlines, rows)) == _hexes(expected)

    def test_empty_row_set(self):
        assert cost_values([], []) == []

    @pytest.mark.parametrize(
        "deadlines, rows",
        [
            # Hidden behind finite values below the deadline: ``max``
            # would skip the NaN.
            ([100], [[1.0, math.nan, 3.0]]),
            ([100, 100], [[1.0, 2.0], [1.0, math.inf]]),
            # The first poisoned row raises, whatever follows it.
            ([100, 100, 0], [[1.0, 2.0], [5.0, math.nan], [math.inf, 1.0]]),
            ([100, 100], [[1.0, -math.inf], [math.nan, 1.0]]),
            # Behind a row that misses.
            ([100, 100], [[500.0, 600.0], [1.0, -math.inf]]),
            # In a row of a negative deadline.
            ([-1, 100], [[math.nan, 0.0], [math.inf, 0.0]]),
        ],
        ids=["nan-below", "inf-below", "first-row-nan", "first-row-inf",
             "after-a-miss", "negative-deadline"],
    )
    def test_non_finite_values_raise_from_the_same_row(self, deadlines, rows):
        expected = _outcome(_oracle_costs, deadlines, rows)
        assert isinstance(expected, tuple)
        assert _outcome(cost_values, deadlines, rows) == expected


class TestNewtonInterpolator:
    def test_reproduces_nodes_exactly(self):
        xs = [1, 4, 9, 16]
        ys = [3, -2, 7, 0]
        ip = NewtonInterpolator(xs, ys)
        for x, y in zip(xs, ys):
            assert ip(x) == pytest.approx(y)

    def test_linear_data_interpolated_exactly(self):
        ip = NewtonInterpolator([0, 10], [5, 25])
        assert ip(5) == pytest.approx(15)
        assert ip(7) == pytest.approx(19)

    def test_quadratic_data(self):
        xs = [0, 1, 2, 3]
        ip = NewtonInterpolator(xs, [x * x for x in xs])
        assert ip(1.5) == pytest.approx(2.25)
        assert ip(10) == pytest.approx(100)  # exact polynomial extrapolates

    def test_incremental_add_matches_batch(self):
        xs = [0, 2, 5, 7]
        ys = [1, 9, 4, 4]
        batch = NewtonInterpolator(xs, ys)
        inc = NewtonInterpolator()
        for x, y in zip(xs, ys):
            inc.add_point(x, y)
        for x in [1, 3, 6, 8.5]:
            assert inc(x) == pytest.approx(batch(x))

    def test_single_point_is_constant(self):
        ip = NewtonInterpolator([5], [42])
        assert ip(0) == 42 and ip(100) == 42

    def test_rejects_duplicate_node(self):
        ip = NewtonInterpolator([1], [1])
        with pytest.raises(AnalysisError, match="duplicate"):
            ip.add_point(1, 2)

    def test_rejects_empty_evaluation(self):
        with pytest.raises(AnalysisError):
            NewtonInterpolator()(3)

    def test_rejects_length_mismatch(self):
        with pytest.raises(AnalysisError):
            NewtonInterpolator([1, 2], [1])

    def test_len_and_xs(self):
        ip = NewtonInterpolator([1, 2], [5, 6])
        assert len(ip) == 2
        assert ip.xs == [1.0, 2.0]


class TestSpreadPoints:
    def test_five_points_cover_range(self):
        pts = spread_points(10, 110, 5)
        assert pts[0] == 10 and pts[-1] == 110
        assert len(pts) == 5
        assert pts == sorted(set(pts))

    def test_small_range_returns_all(self):
        assert spread_points(3, 6, 10) == [3, 4, 5, 6]

    def test_degenerate_range(self):
        assert spread_points(7, 7, 5) == [7]

    def test_single_point(self):
        assert spread_points(2, 9, 1) == [2]

    def test_rejects_empty_range(self):
        with pytest.raises(AnalysisError):
            spread_points(5, 4, 3)

    def test_rejects_zero_count(self):
        with pytest.raises(AnalysisError):
            spread_points(0, 10, 0)

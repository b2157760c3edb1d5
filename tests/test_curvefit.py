"""Unit tests for the Newton interpolator and point spreading, plus
property tests pinning the batched curve-fit scorer to the scalar one."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.cost import cost_function, cost_order, cost_values
from repro.core.curvefit import NewtonCurves, NewtonInterpolator, spread_points
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


class TestCostValues:
    @given(small_system(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_columns_match_cost_function(self, system, data):
        """Eq. (5) over value columns equals ``cost_function`` per
        candidate, deadline misses and all-met candidates alike."""
        app = system.application
        order = cost_order(app)
        width = data.draw(st.integers(1, 6))
        columns = [
            data.draw(st.lists(st.integers(0, 2 * d), min_size=width, max_size=width))
            for _, d in order
        ]
        expected = [
            cost_function(
                app, {name: col[k] for (name, _), col in zip(order, columns)}
            ).value
            for k in range(width)
        ]
        got = cost_values([d for _, d in order], columns)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


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

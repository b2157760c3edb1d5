"""Unit tests for the DYN-length search strategies (Fig. 8)."""

import re
from dataclasses import replace

import pytest

from repro.core.bbc import basic_configuration
from repro.core.dynlen import (
    curvefit_dyn_length,
    curvefit_proposals,
    exhaustive_dyn_length,
)
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
)
from repro.errors import AnalysisError

from tests.util import fig4_system


@pytest.fixture
def setup():
    system = fig4_system()
    options = BusOptimisationOptions()
    evaluator = Evaluator(system, options)
    template = basic_configuration(system, n_minislots=20, options=options)
    lo, hi = dyn_segment_bounds(system, template.st_bus, options)
    return system, evaluator, template, lo, hi


class TestExhaustive:
    def test_finds_best_over_grid(self, setup):
        _, evaluator, template, lo, hi = setup
        best = exhaustive_dyn_length(evaluator, template, lo, hi, max_points=64)
        assert best is not None and best.feasible
        # it must be the minimum over everything analysed
        costs = [p.cost for p in evaluator.trace]
        assert best.cost_value == min(costs)

    def test_respects_point_budget(self, setup):
        _, evaluator, template, lo, hi = setup
        exhaustive_dyn_length(evaluator, template, lo, hi, max_points=9)
        assert evaluator.evaluations <= 9

    def test_empty_range(self, setup):
        _, evaluator, template, lo, hi = setup
        assert exhaustive_dyn_length(evaluator, template, 10, 9) is None


class TestCurveFit:
    def test_finds_schedulable_solution(self, setup):
        _, evaluator, template, lo, hi = setup
        best = curvefit_dyn_length(evaluator, template, lo, hi)
        assert best is not None
        assert best.schedulable

    def test_uses_fewer_analyses_than_exhaustive(self, setup):
        system, _, template, lo, hi = setup
        options = BusOptimisationOptions()
        ev_cf = Evaluator(system, options)
        curvefit_dyn_length(ev_cf, template, lo, hi)
        ev_ee = Evaluator(system, options)
        exhaustive_dyn_length(ev_ee, template, lo, hi)
        assert ev_cf.evaluations < ev_ee.evaluations

    def test_respects_point_cap(self, setup):
        system, _, template, lo, hi = setup
        options = BusOptimisationOptions(cf_max_points=7, initial_cf_points=3)
        evaluator = Evaluator(system, options)
        curvefit_dyn_length(evaluator, template, lo, hi)
        assert evaluator.evaluations <= 7

    def test_empty_range_returns_none(self, setup):
        _, evaluator, template, _, __ = setup
        assert curvefit_dyn_length(evaluator, template, 10, 9) is None

    def test_feasible_result_missing_an_activity_is_an_error(self, setup):
        """Every feasible analysis carries a response time for every
        activity; one that does not cannot be interpolated, and the
        heuristic says which activity is missing instead of silently
        giving up on estimation."""
        system, evaluator, template, lo, hi = setup
        options = BusOptimisationOptions(stop_when_schedulable=False)
        proposals = curvefit_proposals(system, options, template, lo, hi)
        seeds = next(proposals)
        results = evaluator.analyse_many(
            seeds.template.with_dyn_length(n) for n in seeds.lengths
        )
        assert any(r.feasible for r in results)
        dropped = list(system.application.graphs[0].topological_order())[-1]
        broken = [
            replace(r, wcrt={k: v for k, v in r.wcrt.items() if k != dropped})
            for r in results
        ]
        with pytest.raises(AnalysisError, match=re.escape(repr(dropped))):
            proposals.send(broken)

    def test_interpolation_estimates_recorded(self, setup):
        system, _, template, lo, hi = setup
        # Force the heuristic past the seed phase by starting from a
        # range whose seeds are unschedulable (very short segments are
        # infeasible for the 9-minislot frame, long ones cost more).
        options = BusOptimisationOptions(
            initial_cf_points=3, stop_when_schedulable=False
        )
        evaluator = Evaluator(system, options)
        curvefit_dyn_length(evaluator, template, lo, hi)
        kinds = {p.exact for p in evaluator.trace}
        assert True in kinds


class TestBatchedSeedPoints:
    def test_seed_points_go_through_analyse_many(self, setup):
        """The OBC/CF seed set is analysed as one batch: warming the
        evaluator cache with exactly the seed configurations makes the
        seed phase free, and the outcome is unchanged."""
        from repro.core.curvefit import spread_points

        system, _, template, lo, hi = setup
        options = BusOptimisationOptions()

        plain = Evaluator(system, options)
        expected = curvefit_dyn_length(plain, template, lo, hi)

        warmed = Evaluator(system, options)
        seeds = [
            template.with_dyn_length(n)
            for n in spread_points(lo, hi, options.initial_cf_points)
        ]
        warmed.analyse_many(seeds)
        primed_evals = warmed.evaluations
        result = curvefit_dyn_length(warmed, template, lo, hi)
        assert result.config.cache_key() == expected.config.cache_key()
        assert result.cost_value == expected.cost_value
        # every seed analysis of the CF run hit the warmed cache
        assert warmed.cache_hits >= len(seeds)
        assert warmed.evaluations - primed_evals == (
            plain.evaluations - len(seeds)
        )


class TestClampedRounding:
    """``_clamped`` rounds with the unbound ``float.__round__``: the same
    ints as the builtin ``round`` (half to even, signed zeros, huge
    values) and the same exceptions on non-finite values."""

    VALUES = [
        0.5, 1.5, 2.5, -0.5, -1.5, -2.5, 1e12 + 0.5, 2.5e12, 3e15 + 0.5,
        0.0, -0.0, 0.49999999999999994, 2.0**53 + 1.0, -7.5, 123456.5,
        1e300, -1e300, 9.999999999995e11,
    ]

    def test_same_ints_as_round(self):
        from repro.core.cost import _clamped

        expected = [round(v) for v in self.VALUES]
        assert list(map(float.__round__, self.VALUES)) == expected
        assert all(type(r) is int for r in map(float.__round__, self.VALUES))
        assert _clamped(self.VALUES) == [
            min(10**12, max(0, r)) for r in expected
        ]

    @pytest.mark.parametrize(
        "value, error",
        [
            (float("inf"), OverflowError),
            (float("-inf"), OverflowError),
            (float("nan"), ValueError),
        ],
    )
    def test_same_exceptions_as_round(self, value, error):
        from repro.core.cost import _clamped

        with pytest.raises(error) as builtin:
            round(value)
        with pytest.raises(error) as unbound:
            float.__round__(value)
        assert str(unbound.value) == str(builtin.value)
        with pytest.raises(error):
            _clamped([1.0, value, 2.0])

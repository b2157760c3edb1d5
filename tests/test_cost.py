"""Unit tests for the schedulability-degree cost function (Eq. (5))."""

import dataclasses

import pytest

from repro.analysis.context import AnalysisContext
from repro.analysis.holistic import SweepRow
from repro.core.cost import cost_function, cost_order, cost_over
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import StrategyOptions, optimise
from repro.errors import AnalysisError
from repro.synth.suite import paper_system

from tests.util import fig3_system


def wcrt_for(system, default):
    names = [t.name for t in system.application.tasks()]
    names += [m.name for m in system.application.messages()]
    return {n: default for n in names}


class TestCostFunction:
    def test_schedulable_cost_is_negative(self):
        sys_ = fig3_system(deadline=40)
        wcrt = wcrt_for(sys_, 10)
        cost = cost_function(sys_.application, wcrt)
        assert cost.schedulable
        assert cost.value == (10 - 40) * 8  # 8 activities
        assert cost.misses == 0
        assert cost.total_slack == 240

    def test_single_miss_dominates(self):
        sys_ = fig3_system(deadline=40)
        wcrt = wcrt_for(sys_, 10)
        wcrt["m3"] = 55
        cost = cost_function(sys_.application, wcrt)
        assert not cost.schedulable
        assert cost.value == 15  # only the violation counts
        assert cost.misses == 1
        assert cost.worst_violation == 15

    def test_multiple_misses_sum(self):
        sys_ = fig3_system(deadline=40)
        wcrt = wcrt_for(sys_, 10)
        wcrt["m3"] = 55
        wcrt["m2"] = 45
        cost = cost_function(sys_.application, wcrt)
        assert cost.value == 20
        assert cost.misses == 2
        assert cost.worst_violation == 15

    def test_exact_deadline_is_schedulable(self):
        sys_ = fig3_system(deadline=40)
        wcrt = wcrt_for(sys_, 40)
        cost = cost_function(sys_.application, wcrt)
        assert cost.schedulable and cost.value == 0

    def test_individual_deadline_respected(self):
        sys_ = fig3_system(deadline=40)
        # message deadline via application.deadline_of falls back to graph;
        # give one activity a response beyond an individual deadline.
        wcrt = wcrt_for(sys_, 10)
        cost_default = cost_function(sys_.application, wcrt)
        assert cost_default.schedulable

    def test_missing_activity_raises(self):
        sys_ = fig3_system()
        wcrt = wcrt_for(sys_, 10)
        del wcrt["m3"]
        with pytest.raises(AnalysisError, match="m3"):
            cost_function(sys_.application, wcrt)

    def test_float_conversion(self):
        sys_ = fig3_system(deadline=40)
        cost = cost_function(sys_.application, wcrt_for(sys_, 10))
        assert float(cost) == cost.value


class TestResolvedCostOrder:
    """``cost_over`` (the analysis context's fold over a resolved
    :func:`cost_order`) against the public ``cost_function`` oracle."""

    def test_missing_activity_raises_like_the_oracle(self):
        sys_ = fig3_system(deadline=40)
        wcrt = wcrt_for(sys_, 10)
        order = cost_order(sys_.application)
        missing = order[3][0]
        del wcrt[missing]
        with pytest.raises(AnalysisError) as oracle:
            cost_function(sys_.application, wcrt)
        with pytest.raises(AnalysisError) as fold:
            cost_over(order, wcrt)
        assert str(fold.value) == str(oracle.value)
        assert missing in str(fold.value)

    @pytest.mark.parametrize(
        "overrides",
        [{}, {"m3": 55}, {"m3": 55, "r2": 48}, {"m3": 40}, {"t1": 39}],
    )
    def test_fold_equals_oracle(self, overrides):
        sys_ = fig3_system(deadline=40)
        wcrt = dict(wcrt_for(sys_, 10), **overrides)
        assert cost_over(cost_order(sys_.application), wcrt) == cost_function(
            sys_.application, wcrt
        )

    def test_every_obc_ee_and_sa_analysis_costs_as_the_oracle(
        self, monkeypatch
    ):
        system = paper_system(3, 1, seed=23)
        results = []
        original = AnalysisContext._result
        sweep = AnalysisContext.analyse_sweep

        def recording(self, *args):
            result = original(self, *args)
            results.append(result)
            return result

        def recording_rows(self, *args):
            # A sweep's rows are costed without ``_result``; its best is
            # recorded there already.
            entries = sweep(self, *args)
            results.extend(
                e for e in entries if isinstance(e, SweepRow) and e.feasible
            )
            return entries

        monkeypatch.setattr(AnalysisContext, "_result", recording)
        monkeypatch.setattr(AnalysisContext, "analyse_sweep", recording_rows)
        # The Fig. 9 laptop presets (benchmarks/fig9_common.py).
        bus = BusOptimisationOptions(
            max_dyn_points=32,
            ee_max_dyn_points=192,
            cf_candidates=128,
            max_extra_static_slots=1,
            max_slot_size_steps=2,
        )
        optimise(system, "obc-ee", StrategyOptions(bus=bus))
        optimise(system, "sa", SAOptions(bus=bus, iterations=220, seed=7))
        # Some cyclic components run out of passes on this system.
        assert {r.converged for r in results} == {True, False}
        for result in results:
            oracle = cost_function(system.application, result.wcrt)
            assert result.cost == oracle
            assert dataclasses.astuple(result.cost) == dataclasses.astuple(
                oracle
            )

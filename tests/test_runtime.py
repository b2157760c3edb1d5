"""Unit tests for the unified search runtime and the strategy registry.

The legacy-equivalence oracle (``test_legacy_equivalence.py``) pins the
five built-in strategies byte-identical to their pre-runtime
implementations; this module covers the runtime machinery itself --
driver budgets, selection rules, the proposal protocol, registry
dispatch and the evaluator's context-manager lifetime.
"""

import dataclasses
import time

import pytest

from repro.core import optimise
from repro.core.ga import GAOptions
from repro.core.result import OptimisationResult
from repro.core.runtime import (
    CandidateBatch,
    CandidateSweep,
    SearchDriver,
    SearchStrategy,
    drive_with_evaluator,
)
from repro.core.sa import SAOptions
from repro.core.search import BusOptimisationOptions, Evaluator
from repro.core.strategies import (
    StrategyOptions,
    StrategySpec,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.errors import ConfigurationError, OptimisationError
from repro.synth import paper_suite

from tests.util import basic_config, fig3_system, fig4_system


def _configs(n_list):
    return tuple(
        basic_config(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=n)
        for n in n_list
    )


class _ScriptedStrategy(SearchStrategy):
    """Yields a fixed batch script; records what it received."""

    algorithm = "scripted"

    def __init__(self, batches, options=None, select_index=None):
        super().__init__(options)
        self.batches = batches
        self.received = []
        self.select_index = select_index
        self.closed = False

    def proposals(self, system):
        try:
            for batch in self.batches:
                results = yield batch
                self.received.append(results)
        except GeneratorExit:
            self.closed = True
            raise
        if self.select_index is not None:
            flat = [r for results in self.received for r in results]
            return flat[self.select_index]
        return None


class TestSearchDriver:
    def test_driver_runs_batches_and_selects_default_best(self):
        strategy = _ScriptedStrategy(
            [CandidateBatch(_configs([0, 5])), CandidateBatch(_configs([10]))]
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert isinstance(result, OptimisationResult)
        assert result.algorithm == "scripted"
        assert result.evaluations == 3
        assert len(result.trace) == 3
        assert [len(r) for r in strategy.received] == [2, 1]
        # default selection: lowest cost over everything evaluated
        assert result.best is not None
        assert result.cost == min(p.cost for p in result.trace)

    def test_explicit_selection_overrides_default(self):
        strategy = _ScriptedStrategy(
            [CandidateBatch(_configs([0, 5, 10]))], select_index=2
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert result.best is strategy.received[0][2]
        assert result.stop_reason is None

    def test_estimates_recorded_before_batch(self):
        template = _configs([0])[0]
        strategy = _ScriptedStrategy(
            [CandidateSweep(template, lengths=(0,), estimates=((5, -3.0),))]
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert [p.exact for p in result.trace] == [False, True]
        assert result.trace[0].cost == -3.0
        assert result.evaluations == 1  # estimates are not exact analyses

    def test_evaluation_budget_closes_generator(self):
        strategy = _ScriptedStrategy(
            [CandidateBatch(_configs([n])) for n in (0, 5, 10, 15)],
            options=StrategyOptions(max_evaluations=2),
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert result.stop_reason == "budget"
        assert result.evaluations == 2
        assert strategy.closed
        # the default best over what *was* evaluated is still reported
        assert result.best is not None

    def test_wallclock_budget_zero_stops_before_first_batch(self):
        strategy = _ScriptedStrategy(
            [CandidateBatch(_configs([0]))],
            options=StrategyOptions(max_seconds=0.0),
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert result.stop_reason == "budget"
        assert result.evaluations == 0
        assert result.best is None

    def test_estimate_only_batch_gets_empty_results(self):
        template = _configs([0])[0]
        strategy = _ScriptedStrategy(
            [
                CandidateSweep(template, estimates=((5, 7.5),)),
                CandidateBatch(_configs([0])),
            ]
        )
        result = SearchDriver(fig3_system(), strategy).run()
        assert strategy.received[0] == []
        assert len(result.trace) == 2


class TestDriveWithEvaluator:
    def test_returns_generator_value_and_shares_evaluator(self):
        def gen():
            results = yield CandidateBatch(_configs([0, 5]))
            return results[0]

        with Evaluator(fig3_system(), BusOptimisationOptions()) as evaluator:
            picked = drive_with_evaluator(gen(), evaluator)
            assert picked is not None
            assert evaluator.evaluations == 2


class TestEvaluatorContextManager:
    def test_context_manager_closes_pool(self):
        options = BusOptimisationOptions(parallel_workers=2)
        with Evaluator(fig4_system(), options) as evaluator:
            evaluator.analyse_many(
                [
                    basic_config(n_minislots=n)
                    for n in (20, 25, 30)
                ]
            )
            pool = evaluator._executor
            assert pool is not None
        assert evaluator._executor is None

    def test_close_on_exception_path(self):
        options = BusOptimisationOptions(parallel_workers=2)
        with pytest.raises(RuntimeError):
            with Evaluator(fig4_system(), options) as evaluator:
                evaluator.analyse_many(
                    [basic_config(n_minislots=n) for n in (20, 25)]
                )
                raise RuntimeError("boom")
        assert evaluator._executor is None


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_strategies()) >= {
            "bbc",
            "obc-cf",
            "obc-ee",
            "sa",
            "ga",
        }

    def test_dispatch_by_name_matches_direct_call(self):
        from repro.core import optimise_bbc

        by_name = optimise(fig4_system(), "bbc")
        direct = optimise_bbc(fig4_system())
        assert by_name.trace == direct.trace
        assert by_name.cost == direct.cost

    def test_unknown_strategy_rejected(self):
        with pytest.raises(OptimisationError, match="unknown strategy"):
            optimise(fig3_system(), "magic")

    def test_wrong_options_type_rejected(self):
        with pytest.raises(OptimisationError, match="expects"):
            optimise(fig3_system(), "sa", GAOptions())

    def test_options_type_resolution(self):
        assert get_strategy("sa").options_type is SAOptions
        assert get_strategy("ga").options_type is GAOptions
        assert get_strategy("bbc").options_type is StrategyOptions

    def test_third_party_registration(self):
        class FirstFeasible(SearchStrategy):
            algorithm = "FIRST"

            def proposals(self, system):
                results = yield CandidateBatch(_configs([0]))
                return results[0]

        register_strategy(
            StrategySpec(
                name="first-feasible",
                summary="test strategy",
                options_type=StrategyOptions,
                runner=lambda system, options: SearchDriver(
                    system, FirstFeasible(options)
                ).run(),
            )
        )
        try:
            assert "first-feasible" in available_strategies()
            result = optimise(fig3_system(), "first-feasible")
            assert result.algorithm == "FIRST"
            assert result.evaluations == 1
        finally:
            from repro.core import strategies

            strategies._REGISTERED.pop("first-feasible", None)


class TestStrategyOptions:
    def test_with_bus_and_defaults(self):
        base = SAOptions(iterations=10)
        bus = BusOptimisationOptions(parallel_workers=2)
        assert base.bus is None
        assert base.bus_options() == BusOptimisationOptions()
        updated = base.with_bus(bus)
        assert updated.bus is bus
        assert updated.iterations == 10
        assert base.with_bus(None) is base

    def test_sa_ga_options_inherit_budgets(self):
        sa = SAOptions(max_evaluations=7)
        ga = GAOptions(max_seconds=1.5)
        assert sa.max_evaluations == 7
        assert ga.max_seconds == 1.5

    @pytest.mark.parametrize("options_type", [StrategyOptions, SAOptions])
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_seconds", "1"),
            ("max_seconds", -0.5),
            ("max_seconds", float("nan")),
            ("max_seconds", True),
            ("max_evaluations", -3),
            ("max_evaluations", 2.0),
            ("max_evaluations", False),
        ],
    )
    def test_bad_budgets_rejected_where_built(self, options_type, field, value):
        with pytest.raises(ConfigurationError, match=field):
            options_type(**{field: value})

    def test_good_budgets_accepted(self):
        options = StrategyOptions(max_seconds=0, max_evaluations=0)
        assert (options.max_seconds, options.max_evaluations) == (0, 0)
        assert StrategyOptions(max_seconds=float("inf")).max_seconds > 0


@pytest.fixture
def batch_clock(monkeypatch):
    """A fake wall clock that advances one second per evaluated batch
    and stands still otherwise; returns the list of batch sizes."""
    now = [1000.0]
    batches = []
    analyse_many = Evaluator.analyse_many

    def tick(self, configs):
        configs = list(configs)
        batches.append(len(configs))
        now[0] += 1.0
        return analyse_many(self, configs)

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    monkeypatch.setattr(Evaluator, "analyse_many", tick)
    return batches


class TestWallClockBudget:
    """``max_seconds`` stops SA and GA at the driver's batch boundary
    only: the clock moves during analysis, and the run that sees it
    past the budget reports ``stop_reason="budget"``."""

    @pytest.mark.parametrize(
        "name,options",
        [
            ("sa", SAOptions(iterations=50, seed=3, max_seconds=2.5)),
            ("ga", GAOptions(population=4, generations=10, max_seconds=2.5)),
        ],
    )
    def test_budget_stop_is_reported(self, batch_clock, name, options):
        result = optimise(fig4_system(), name, options)
        assert result.stop_reason == "budget"
        # Batches at t = 0, 1, 2 ran; the one proposed at t = 3 did not.
        assert len(batch_clock) == 3


class TestDriverBudgetsOnRealStrategies:
    def test_sa_evaluation_budget(self):
        result = optimise(
            fig4_system(),
            "sa",
            SAOptions(iterations=200, seed=3, max_evaluations=10),
        )
        assert result.stop_reason == "budget"
        # batch granularity: SA proposes one candidate at a time
        assert result.evaluations == 10

    def test_obc_ee_evaluation_budget(self):
        small = BusOptimisationOptions(
            ee_max_dyn_points=16, max_extra_static_slots=1, max_slot_size_steps=1
        )
        unbounded = optimise(
            fig4_system(), "obc-ee", StrategyOptions(bus=small)
        )
        bounded = optimise(
            fig4_system(),
            "obc-ee",
            StrategyOptions(bus=small, max_evaluations=1),
        )
        # the budget is checked at batch boundaries, so the first batch
        # may complete, but nothing beyond it is evaluated
        assert bounded.evaluations <= max(16, 1)
        assert bounded.evaluations <= unbounded.evaluations


class TestParallelBatchIdentity:
    """Serial == parallel for the batched strategies via the registry."""

    def _outcome(self, result):
        cfg = result.config
        return (
            result.cost,
            result.schedulable,
            result.evaluations,
            result.cache_hits,
            None if cfg is None else cfg.cache_key(),
            result.trace,
        )

    def test_ga_generation_batches(self):
        ga = GAOptions(population=6, generations=3, seed=11)
        serial = optimise(fig4_system(), "ga", ga)
        parallel = optimise(
            fig4_system(),
            "ga",
            dataclasses.replace(
                ga, bus=BusOptimisationOptions(parallel_workers=2)
            ),
        )
        assert self._outcome(serial) == self._outcome(parallel)

    def test_sa_restart_chains(self):
        sa = SAOptions(iterations=30, seed=7, restarts=2)
        serial = optimise(fig4_system(), "sa", sa)
        parallel = optimise(
            fig4_system(),
            "sa",
            dataclasses.replace(
                sa, bus=BusOptimisationOptions(parallel_workers=2)
            ),
        )
        assert self._outcome(serial) == self._outcome(parallel)

    def test_bbc_sweep_batch(self):
        serial = optimise(fig4_system(), "bbc")
        parallel = optimise(
            fig4_system(),
            "bbc",
            StrategyOptions(bus=BusOptimisationOptions(parallel_workers=2)),
        )
        assert self._outcome(serial) == self._outcome(parallel)

    def test_dead_pool_degrades_serially_with_actionable_warning(
        self, caplog
    ):
        """A pool that dies mid-batch (worker OOM-killed, unpicklable
        payload) must fall back to identical serial results, disable
        itself for the rest of the run, and say so in a warning the
        user can act on."""
        import logging

        from repro.core.bbc import basic_configuration

        system = fig4_system()
        configs = [
            basic_configuration(system, n, BusOptimisationOptions())
            for n in (10, 12)
        ]
        reference = Evaluator(system, BusOptimisationOptions())
        expected = [r.wcrt for r in reference.analyse_many(configs)]
        reference.close()

        class _DeadPool:
            def map(self, *args, **kwargs):
                raise RuntimeError("worker died unexpectedly")

            def shutdown(self):
                pass

        evaluator = Evaluator(
            system, BusOptimisationOptions(parallel_workers=2)
        )
        evaluator._executor = _DeadPool()
        try:
            with caplog.at_level(logging.WARNING, logger="repro.core.search"):
                results = evaluator.analyse_many(configs)
        finally:
            evaluator.close()
        assert [r.wcrt for r in results] == expected
        assert evaluator._parallel_broken
        warning = "\n".join(record.getMessage() for record in caplog.records)
        assert "serially" in warning and "pool" in warning
        assert "RuntimeError" in warning  # names the underlying cause

    def test_dead_sa_restart_pool_degrades_serially_with_actionable_warning(
        self, caplog, monkeypatch
    ):
        """The SA restart pool falls back the same way: identical
        serial chains, plus a warning that names the cause."""
        import concurrent.futures
        import logging

        sa = SAOptions(iterations=30, seed=7, restarts=2)
        expected = optimise(fig4_system(), "sa", sa)

        class _DeadPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args, **kwargs):
                raise RuntimeError("worker died unexpectedly")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _DeadPool)
        with caplog.at_level(logging.WARNING, logger="repro.core.sa"):
            result = optimise(
                fig4_system(),
                "sa",
                dataclasses.replace(
                    sa, bus=BusOptimisationOptions(parallel_workers=2)
                ),
            )
        assert self._outcome(result) == self._outcome(expected)
        warning = "\n".join(record.getMessage() for record in caplog.records)
        assert "serially" in warning and "pool" in warning
        assert "RuntimeError" in warning  # names the underlying cause


def test_optimisers_identical_serial_vs_parallel():
    """Fixed-seed optimiser outcomes are byte-identical with the pool on."""
    import dataclasses

    from repro.core import (
        GAOptions,
        SAOptions,
        optimise_bbc,
        optimise_ga,
        optimise_obc,
        optimise_sa,
    )

    system = paper_suite(3, count=1, seed=23)[0]
    serial = BusOptimisationOptions(
        max_dyn_points=16,
        ee_max_dyn_points=48,
        cf_candidates=64,
        max_extra_static_slots=1,
        max_slot_size_steps=1,
    )
    parallel = dataclasses.replace(serial, parallel_workers=2)

    def outcome(result):
        cfg = result.config
        return (
            result.cost,
            result.schedulable,
            result.evaluations,
            result.cache_hits,
            None if cfg is None else cfg.cache_key(),
            result.trace,
        )

    runners = (
        ("BBC", lambda o: optimise_bbc(system, o)),
        ("OBC/EE", lambda o: optimise_obc(system, o, "exhaustive")),
        ("OBC/CF", lambda o: optimise_obc(system, o, "curvefit")),
        ("SA", lambda o: optimise_sa(
            system, o, SAOptions(iterations=60, seed=9, restarts=2))),
        ("GA", lambda o: optimise_ga(
            system, o, GAOptions(population=6, generations=3, seed=5))),
    )
    for name, run in runners:
        assert outcome(run(serial)) == outcome(run(parallel)), (
            f"{name}: parallel run diverged from serial at fixed seed"
        )

"""Cache correctness of the incremental analysis engine.

The engine (``repro.analysis.context.AnalysisContext``) must be a pure
performance layer: a warm context, a cold context and the parallel
evaluation pool all have to produce bit-identical results, and the
evaluator's LRU cache must change accounting only, never outcomes.
"""

import threading
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisContext, analyse_system
from repro.analysis import context as context_module
from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisOptions
from repro.core import GAOptions, SAOptions, optimise_ga, optimise_sa
from repro.core.bbc import basic_configuration
from repro.core.config import FlexRayConfig
from repro.core.ga import _initial_population
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions, optimise
from repro.errors import ConfigurationError
from repro.synth import paper_suite
from repro.synth.suite import paper_system

from tests.test_properties import small_system
from tests.util import (
    basic_config,
    dyn_msg,
    fig3_system,
    fig4_system,
    fps_task,
    single_graph_system,
)

import random


def _result_signature(result):
    """Everything the bit-identity contract covers, wcrt order included."""
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        result.cost,
        tuple(result.wcrt.items()),
    )


def _candidate_configs(system, per_system=6):
    """A spread of BBC-shaped configs across the legal DYN range."""
    options = BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    lengths = sweep_lengths(lo, hi, per_system) if hi >= lo and hi > 0 else [0]
    configs = []
    for n in lengths:
        try:
            configs.append(basic_configuration(system, n, options))
        except Exception:
            continue
    return configs


class TestWarmContextBitIdentical:
    def test_property_randomised_systems(self):
        """Warm-context results equal cold runs on randomised systems."""
        rng = random.Random(20070416)
        for n_nodes in (2, 3, 4):
            suite = paper_suite(n_nodes, count=2, seed=rng.randrange(10_000))
            for system in suite:
                context = AnalysisContext(system)
                for config in _candidate_configs(system):
                    cold = analyse_system(system, config)
                    warm = context.analyse(config)
                    again = context.analyse(config)
                    assert _result_signature(cold) == _result_signature(warm)
                    assert _result_signature(cold) == _result_signature(again)

    def test_shared_schedule_rebound_to_config(self):
        """Cache-served tables carry the analysed configuration."""
        system = fig4_system()  # no ST messages: schedule shared over sweep
        context = AnalysisContext(system)
        a = context.analyse(basic_configuration(system, 20))
        b = context.analyse(basic_configuration(system, 40))
        assert a.table is not None and b.table is not None
        assert a.table.config.n_minislots == 20
        assert b.table.config.n_minislots == 40
        assert a.table.tasks == b.table.tasks  # placements shared

    def test_context_for_wrong_system_is_ignored(self):
        other = AnalysisContext(fig3_system())
        system = fig4_system()
        config = basic_configuration(system, 20)
        direct = analyse_system(system, config)
        via_wrong = analyse_system(system, config, context=other)
        assert _result_signature(direct) == _result_signature(via_wrong)


def test_unknown_fill_strategy_rejected_up_front():
    """A bad ``dyn_fill_strategy`` fails at context construction, on a
    system without DYN messages (which never reaches the fill code) as
    on one with them."""
    options = AnalysisOptions(dyn_fill_strategy="bogus")
    for system in (fig3_system(), fig4_system()):
        with pytest.raises(ConfigurationError, match="dyn_fill_strategy"):
            AnalysisContext(system, options)


def test_validation_floor_is_lru_bounded(monkeypatch):
    """The validation floor holds at most ``_MAX_VALIDATION_ENTRIES``
    (static segment, FrameID assignment) entries -- SA moves and the
    service's long-lived contexts would otherwise grow it without
    limit -- and evicting floors never changes a result."""
    monkeypatch.setattr(context_module, "_MAX_VALIDATION_ENTRIES", 4)
    system = fig4_system()
    base = basic_configuration(system, 40)
    # N1 sends m1 and m3, N2 sends m2: m2's FrameID must differ.
    assignments = [
        {"m1": a, "m3": b, "m2": c}
        for a in range(1, 5)
        for b in range(1, 5)
        for c in range(1, 6)
        if c not in (a, b)
    ][:20]
    context = AnalysisContext(system)
    for frame_ids in assignments:
        config = base.with_frame_ids(frame_ids)
        result = context.analyse(config)
        assert result.feasible
        assert _result_signature(result) == _result_signature(
            context.analyse_cold(config)
        )
    assert len(context._valid_floor) <= 4


class TestEvaluatorCache:
    def test_lru_bound_evicts_and_recounts(self):
        system = fig3_system()
        options = BusOptimisationOptions(max_cache_entries=2)
        ev = Evaluator(system, options)
        cfgs = [
            basic_config(
                static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=n
            )
            for n in (0, 5, 10)
        ]
        for cfg in cfgs:
            ev.analyse(cfg)
        assert ev.evaluations == 3
        # cfgs[0] was evicted (bound 2): re-analysing costs an evaluation.
        ev.analyse(cfgs[0])
        assert ev.evaluations == 4
        assert ev.cache_hits == 0
        # cfgs[2] is still cached: pure hit.
        ev.analyse(cfgs[2])
        assert ev.evaluations == 4
        assert ev.cache_hits == 1

    def test_cache_hits_not_counted_as_evaluations(self):
        system = fig3_system()
        ev = Evaluator(system, BusOptimisationOptions())
        cfg = basic_config(
            static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=0
        )
        r1 = ev.analyse(cfg)
        r2 = ev.analyse(cfg)
        assert r1 is r2
        assert ev.evaluations == 1
        assert ev.cache_hits == 1
        assert len(ev.trace) == 1

    @pytest.mark.parametrize(
        "bound,evaluations,hits",
        [(None, 3, 2), (0, 5, 0), (1, 5, 0), (2, 3, 2)],
        ids=["None", "0", "1", "2"],
    )
    def test_analyse_many_matches_serial_semantics(self, bound, evaluations, hits):
        system = fig3_system()
        cfgs = [
            basic_config(
                static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=n
            )
            for n in (0, 5, 0, 5, 10)  # duplicates inside the batch
        ]
        options = BusOptimisationOptions(max_cache_entries=bound)
        serial = Evaluator(system, options)
        expected = [serial.analyse(c) for c in cfgs]
        batched = Evaluator(system, options)
        computed = []
        original = batched._map
        batched._map = lambda configs: computed.extend(configs) or original(configs)
        got = batched.analyse_many(cfgs)
        assert [
            _result_signature(r) for r in got
        ] == [_result_signature(r) for r in expected]
        assert batched.evaluations == serial.evaluations == evaluations
        assert batched.cache_hits == serial.cache_hits == hits
        assert [p.n_minislots for p in batched.trace] == [
            p.n_minislots for p in serial.trace
        ]
        # Each distinct configuration is still computed once.
        assert [c.n_minislots for c in computed] == [0, 5, 10]


class TestParallelDeterminism:
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

    def test_parallel_ga_equals_serial(self):
        system = fig4_system()
        serial = BusOptimisationOptions()
        parallel = replace(serial, parallel_workers=2)
        ga = GAOptions(population=6, generations=3, seed=11)
        a = optimise_ga(system, serial, ga)
        b = optimise_ga(system, parallel, ga)
        assert self._outcome(a) == self._outcome(b)

    def test_parallel_sa_restarts_equal_serial(self):
        system = fig4_system()
        serial = BusOptimisationOptions()
        parallel = replace(serial, parallel_workers=2)
        sa = SAOptions(iterations=40, seed=7, restarts=2)
        a = optimise_sa(system, serial, sa)
        b = optimise_sa(system, parallel, sa)
        assert self._outcome(a) == self._outcome(b)

    def test_single_restart_unchanged(self):
        system = fig4_system()
        sa = SAOptions(iterations=40, seed=7)
        a = optimise_sa(system, sa_options=sa)
        b = optimise_sa(system, sa_options=sa)
        assert self._outcome(a) == self._outcome(b)


class TestGAPopulationDedup:
    def test_initial_population_distinct(self):
        system = fig4_system()
        options = BusOptimisationOptions()
        rng = random.Random(3)
        population = _initial_population(system, options, rng, 10)
        keys = {cfg.cache_key() for cfg in population}
        assert len(population) == 10
        assert len(keys) == 10  # fig4 has a huge DYN range: all distinct

    def test_population_terminates_on_tiny_design_space(self):
        # fig3 has no DYN messages: many moves are no-ops, so the
        # bounded retry budget must still fill the population.
        system = fig3_system()
        options = BusOptimisationOptions()
        rng = random.Random(3)
        population = _initial_population(system, options, rng, 8)
        assert len(population) == 8


class TestStaticWcrtMemo:
    def test_context_static_wcrt_equals_public_function(self):
        """`AnalysisContext._static_wcrt` (job-base memoised) must stay
        locked to the public `static_response_times` it reimplements --
        checked across a sweep so the memo is exercised warm."""
        from repro.analysis import static_response_times

        system = paper_suite(3, count=1, seed=23)[0]
        options = BusOptimisationOptions()
        slot = min_static_slot(system, options)
        lo, hi = dyn_segment_bounds(
            system, len(system.st_sender_nodes()) * slot, options
        )
        context = AnalysisContext(system)
        for n in sweep_lengths(lo, hi, 8):
            config = basic_configuration(system, n, options)
            arts = context._schedule_artifacts(config)
            assert arts.table is not None
            assert context._static_wcrt(arts.table) == static_response_times(
                system.application, arts.table
            )


class TestConfigKeys:
    def test_static_key_is_prefix_of_cache_key(self):
        cfg = basic_config(
            static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=7
        )
        assert cfg.cache_key()[: len(cfg.static_key())] == cfg.static_key()

    def test_static_key_ignores_dyn_length_and_frame_ids(self):
        a = basic_config(
            static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=7
        )
        b = a.with_dyn_length(30)
        assert a.static_key() == b.static_key()
        assert a.cache_key() != b.cache_key()


# ----------------------------------------------------------------------
# evaluation order of the holistic fix point
# ----------------------------------------------------------------------
def _legacy_order(app, dyn_messages, fps_tasks):
    """The former pass order: every DYN message, then the FPS tasks
    node by node -- the slot layout itself, unsorted."""
    return tuple(range(len(dyn_messages) + len(fps_tasks)))


@contextmanager
def legacy_order():
    """Contexts built inside this block walk the fix point in the legacy
    DYN-then-FPS order instead of precedence order."""
    with mock.patch.object(context_module, "precedence_order", _legacy_order):
        yield


@contextmanager
def analysis_log():
    """Records the signature of every oracle analysis and counts the
    busy-window evaluations made inside the block -- the calling
    thread's only, so a stray thread that is still analysing (an
    abandoned timed-out campaign job) cannot leak into the log."""
    log = SimpleNamespace(signatures=[], windows=0)
    analyse = AnalysisContext._analyse_python
    owner = threading.get_ident()

    def logged(ctx, config):
        result = analyse(ctx, config)
        if threading.get_ident() == owner:
            log.signatures.append(_result_signature(result))
        return result

    def counted(window):
        def count(*args):
            if threading.get_ident() == owner:
                log.windows += 1
            return window(*args)

        return count

    with mock.patch.object(
        AnalysisContext, "_analyse_python", logged
    ), mock.patch.object(
        context_module,
        "_fps_busy_window",
        counted(context_module._fps_busy_window),
    ), mock.patch.object(
        context_module,
        "_dyn_busy_window",
        counted(context_module._dyn_busy_window),
    ):
        yield log


#: The OBC/EE preset of the Fig. 9 benchmark: 192-point DYN sweeps.
EE_BUS = BusOptimisationOptions(
    max_dyn_points=32,
    ee_max_dyn_points=192,
    cf_candidates=128,
    max_extra_static_slots=1,
    max_slot_size_steps=2,
)


def _chain_system():
    """FPS -> DYN -> FPS -> DYN -> FPS across two nodes: each hop of the
    chain costs the legacy order one extra pass."""
    tasks = [
        fps_task("t1", wcet=5, node="N1", priority=1),
        fps_task("t2", wcet=7, node="N2", priority=1),
        fps_task("t3", wcet=3, node="N1", priority=2),
    ]
    msgs = [dyn_msg("m1", 4, "t1", "t2"), dyn_msg("m2", 6, "t2", "t3")]
    return single_graph_system(tasks, msgs, period=200, deadline=200)


CHAIN_CONFIG = FlexRayConfig(
    static_slots=("N1", "N2"),
    gd_static_slot=2,
    n_minislots=20,
    frame_ids={"m1": 1, "m2": 2},
)


class TestEvaluationOrder:
    """Precedence order and the legacy DYN-then-FPS order are two
    chaotic iterations of one monotone operator from the same bottom
    state: wherever both stop on a no-change pass they return the same
    least fixed point, item for item."""

    def test_precedence_order_puts_senders_first(self):
        system = _chain_system()
        context = AnalysisContext(system)
        names = [context._slot_names[i] for i in context._eval_order]
        assert names == ["t1", "m1", "t2", "m2", "t3"]
        # The result keeps the slot layout: DYN messages, then FPS tasks.
        wcrt = context.analyse(CHAIN_CONFIG).wcrt
        assert list(wcrt) == ["m1", "m2", "t1", "t3", "t2"]

    @pytest.mark.parametrize("member", [(3, 1), (4, 0)])
    def test_obc_ee_sweeps_match_legacy_order(self, member):
        """Every analysis of a 192-point OBC/EE run (converged or not)
        is identical in both orders; on ``paper_system(4, 0)`` the
        precedence order needs at least 30% fewer busy windows."""
        system = paper_system(*member, seed=23)
        options = StrategyOptions(bus=EE_BUS)
        with analysis_log() as new:
            new_result = optimise(system, "obc-ee", options)
        with legacy_order(), analysis_log() as old:
            old_result = optimise(system, "obc-ee", options)
        assert len(new.signatures) == 1152
        assert new.signatures == old.signatures
        assert (new_result.cost, new_result.evaluations) == (
            old_result.cost,
            old_result.evaluations,
        )
        if member == (4, 0):
            assert new.windows <= 0.7 * old.windows, (new.windows, old.windows)

    @given(
        system=small_system(),
        points=st.integers(1, 4),
        method=st.sampled_from(("analyse", "analyse_cold")),
        fault_k=st.sampled_from((0, 1)),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_small_systems_match_legacy_order(
        self, system, points, method, fault_k
    ):
        options = AnalysisOptions(fault_hypothesis=fault_k)
        configs = _candidate_configs(system, per_system=points)
        new = AnalysisContext(system, options)
        with legacy_order():
            old = AnalysisContext(system, options)
        for config in configs:
            assert _result_signature(
                getattr(new, method)(config)
            ) == _result_signature(getattr(old, method)(config))

    def test_chain_converges_within_a_budget_the_legacy_order_exceeds(self):
        """The documented difference: with a 3-pass budget the legacy
        order runs out of passes on a two-hop chain, while the
        precedence order converges to the least fixed point."""
        system = _chain_system()
        least = analyse_system(system, CHAIN_CONFIG)
        assert least.converged
        tight = AnalysisOptions(max_holistic_iterations=3)
        result = analyse_system(system, CHAIN_CONFIG, tight)
        assert result.converged and result.schedulable
        assert tuple(result.wcrt.items()) == tuple(least.wcrt.items())
        assert result.wcrt["t3"] == result.wcrt["m2"] + 3
        with legacy_order():
            legacy = analyse_system(system, CHAIN_CONFIG, tight)
            legacy_least = analyse_system(system, CHAIN_CONFIG)
        assert not legacy.converged
        assert tuple(legacy_least.wcrt.items()) == tuple(least.wcrt.items())

    @pytest.mark.native
    @pytest.mark.skipif(
        native_or_none() is None,
        reason="needs the compiled repro[native] extra",
    )
    def test_native_walks_the_same_order(self):
        """The compiled kernel walks the template's activities in array
        order, so it converges within the same tight budget."""
        system = _chain_system()
        tight = AnalysisOptions(max_holistic_iterations=3)
        python = analyse_system(system, CHAIN_CONFIG, tight)
        native = AnalysisContext(
            system, replace(tight, backend="native")
        ).analyse(CHAIN_CONFIG)
        assert native.converged
        assert _result_signature(native) == _result_signature(python)

"""Sweep-shaped analysis requests: ``CandidateSweep`` through
``Evaluator.analyse_sweep`` and ``AnalysisContext.analyse_sweep``.

A sweep analyses one template at many DYN lengths without building a
configuration per length.  Every contract of the per-configuration path
carries over: each entry equals ``analyse`` of that length's
configuration, the evaluator's counts, cache hits and trace match the
serial per-configuration order at every cache bound, and the pool gives
the same answers.  What changes is what is kept: the evaluator caches
compact rows, and a full result only for each sweep's best; the context
keeps no schedule artifact or group plan that a sweep with ST messages
built, because each of its lengths has a schedule key of its own.
"""

import pytest

from repro.analysis import AnalysisContext, context as context_module
from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisOptions, AnalysisResult, SweepRow
from repro.analysis.scheduler import SchedulePlan
from repro.core.dynlen import exhaustive_proposals
from repro.core.obc import OBCStrategy, _static_variants
from repro.core.runtime import CandidateSweep, drive_with_evaluator
from repro.core.search import BusOptimisationOptions, Evaluator, sweep_lengths
from repro.core.strategies import StrategyOptions
from repro.errors import ConfigurationError
from repro.flexray import params
from repro.synth.suite import paper_system

from tests.util import basic_config, fig3_system, fig4_system

BACKENDS = ["python"] + (["native"] if native_or_none() is not None else [])

#: A small OBC/EE preset: two slot counts, two slot sizes, 24-point sweeps.
EE_BUS = BusOptimisationOptions(
    ee_max_dyn_points=24,
    max_extra_static_slots=1,
    max_slot_size_steps=1,
    stop_when_schedulable=False,
)


def _signature(result):
    """Everything a row shares with its full result, wcrt order included."""
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        result.cost,
        result.cost_value,
        tuple(result.wcrt.items()),
    )


def _first_variant(system, bus=EE_BUS):
    template, lo, hi = _static_variants(system, bus)[0]
    return template, tuple(sweep_lengths(lo, hi, bus.ee_max_dyn_points))


def _best_index(entries):
    best = min(e.cost_value for e in entries)
    return next(i for i, e in enumerate(entries) if e.cost_value == best)


@pytest.mark.parametrize(
    "bound,evaluations,hits",
    [(None, 3, 2), (0, 5, 0), (1, 5, 0), (2, 3, 2)],
    ids=["None", "0", "1", "2"],
)
def test_analyse_sweep_matches_serial_semantics(bound, evaluations, hits):
    system = fig3_system()
    template = basic_config(
        static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=0
    )
    lengths = (0, 5, 0, 5, 10)  # duplicates inside the sweep
    options = BusOptimisationOptions(max_cache_entries=bound)
    serial = Evaluator(system, options)
    expected = [serial.analyse(template.with_dyn_length(n)) for n in lengths]
    swept = Evaluator(system, options)
    computed = []
    original = swept.context.analyse_sweep
    swept.context.analyse_sweep = (
        lambda sweep: computed.extend(sweep.lengths) or original(sweep)
    )
    got = swept.analyse_sweep(CandidateSweep(template, lengths))
    assert [_signature(e) for e in got] == [_signature(r) for r in expected]
    assert swept.evaluations == serial.evaluations == evaluations
    assert swept.cache_hits == serial.cache_hits == hits
    assert swept.trace == serial.trace
    # Each distinct length is still computed once.
    assert computed == [0, 5, 10]
    # Reading an entry's full result is neither an evaluation nor a hit.
    for entry, result in zip(got, expected):
        full = swept.result_of(entry)
        assert isinstance(full, AnalysisResult)
        assert full.config.cache_key() == result.config.cache_key()
        assert _signature(full) == _signature(result)
    assert (swept.evaluations, swept.cache_hits) == (evaluations, hits)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("member", ["fig4", (3, 1), (4, 0)])
def test_context_sweep_equals_per_length_analyses(member, backend):
    """Every row equals ``analyse`` of its length; the first lowest-cost
    length is the full result, table included."""
    system = fig4_system() if member == "fig4" else paper_system(*member, seed=23)
    template, lengths = _first_variant(system)
    options = AnalysisOptions(backend=backend)
    entries = AnalysisContext(system, options).analyse_sweep(
        CandidateSweep(template, lengths)
    )
    reference = AnalysisContext(system)
    expected = [reference.analyse(template.with_dyn_length(n)) for n in lengths]
    assert [_signature(e) for e in entries] == [_signature(r) for r in expected]
    best = _best_index(expected)
    assert [isinstance(e, AnalysisResult) for e in entries] == [
        i == best for i in range(len(entries))
    ]
    assert [e.n_minislots for e in entries if isinstance(e, SweepRow)] == [
        n for i, n in enumerate(lengths) if i != best
    ]
    full = entries[best]
    assert full.config.cache_key() == expected[best].config.cache_key()
    if full.feasible:
        assert full.table.config is full.config
        assert full.table.record.finish == expected[best].table.record.finish
        assert full.table.tasks == expected[best].table.tasks


def test_sweep_of_infeasible_lengths_keeps_the_failures():
    """Lengths below the validation floor fail with the per-configuration
    message; the first one is the (infeasible) best."""
    system = fig4_system()
    template = basic_config(
        static_slots=("N1", "N2"),
        gd_static_slot=8,
        n_minislots=13,
        frame_ids={"m1": 1, "m2": 2, "m3": 3},
    )
    lengths = (3, 4, 13, 20)
    entries = AnalysisContext(system).analyse_sweep(
        CandidateSweep(template, lengths)
    )
    reference = AnalysisContext(system)
    expected = [reference.analyse(template.with_dyn_length(n)) for n in lengths]
    assert [_signature(e) for e in entries] == [_signature(r) for r in expected]
    assert not expected[0].feasible and "invalid" in expected[0].failure


def test_obc_ee_caches_a_full_result_only_for_each_sweeps_best():
    system = paper_system(3, 1, seed=23)
    evaluator = Evaluator(system, EE_BUS)
    strategy = OBCStrategy(StrategyOptions(bus=EE_BUS), "exhaustive")
    best = drive_with_evaluator(strategy.proposals(system), evaluator)
    variants = _static_variants(system, EE_BUS)
    assert len(variants) > 1
    for template, lo, hi in variants:
        keys = template.cache_keys(sweep_lengths(lo, hi, EE_BUS.ee_max_dyn_points))
        entries = [evaluator._cache[key] for key in keys]
        kept = [i for i, e in enumerate(entries) if isinstance(e, AnalysisResult)]
        assert kept == [_best_index(entries)]
        assert all(
            e.values is None for e in entries if isinstance(e, SweepRow)
        )
    assert sum(
        isinstance(e, AnalysisResult) for e in evaluator._cache.values()
    ) == len(variants)
    assert any(e is best for e in evaluator._cache.values())


def test_a_hit_on_a_compact_row_materialises_without_an_evaluation():
    system = paper_system(3, 1, seed=23)
    template, lengths = _first_variant(system)
    evaluator = Evaluator(system, EE_BUS)
    entries = evaluator.analyse_sweep(CandidateSweep(template, lengths))
    i = next(i for i, e in enumerate(entries) if isinstance(e, SweepRow))
    config = template.with_dyn_length(lengths[i])
    before = (evaluator.evaluations, evaluator.cache_hits)
    result = evaluator.analyse(config)
    assert (evaluator.evaluations, evaluator.cache_hits) == (
        before[0], before[1] + 1
    )
    assert _signature(result) == _signature(AnalysisContext(system).analyse(config))
    assert evaluator._cache[config.cache_key()] is result
    # The same lengths again: all hits, every entry a full result.
    again = evaluator.analyse_sweep(CandidateSweep(template, lengths))
    assert evaluator.evaluations == before[0]
    assert all(isinstance(e, AnalysisResult) for e in again)
    assert [_signature(e) for e in again] == [_signature(e) for e in entries]


def test_pooled_sweep_equals_serial_sweep():
    system = paper_system(3, 1, seed=23)
    template, lengths = _first_variant(system)
    serial = Evaluator(system, EE_BUS)
    expected = serial.analyse_sweep(CandidateSweep(template, lengths))
    with Evaluator(
        system, BusOptimisationOptions(
            ee_max_dyn_points=24, parallel_workers=2
        )
    ) as pooled:
        got = pooled.analyse_sweep(CandidateSweep(template, lengths))
        assert not pooled._parallel_broken
    assert [_signature(e) for e in got] == [_signature(e) for e in expected]
    assert pooled.trace == serial.trace
    assert pooled.evaluations == serial.evaluations == len(lengths)
    kept = [
        i for i, key in enumerate(template.cache_keys(lengths))
        if isinstance(pooled._cache[key], AnalysisResult)
    ]
    assert kept == [_best_index(expected)]


def test_exhaustive_proposals_yield_one_sweep_and_return_its_best():
    system = fig4_system()
    template, lengths = _first_variant(system)
    gen = exhaustive_proposals(EE_BUS, template, lengths[0], lengths[-1])
    sweep = next(gen)
    assert isinstance(sweep, CandidateSweep)
    assert sweep.template is template and sweep.lengths == lengths
    entries = Evaluator(system, EE_BUS).analyse_sweep(sweep)
    with pytest.raises(StopIteration) as stop:
        gen.send(entries)
    assert stop.value.value is entries[_best_index(entries)]
    assert isinstance(stop.value.value, AnalysisResult)


def test_a_sweep_rejects_lengths_no_configuration_can_have():
    template = basic_config(
        static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=13,
        frame_ids={"m1": 3},
    )
    with pytest.raises(ConfigurationError):
        CandidateSweep(template, (2, 13))  # FrameID 3 needs 3 minislots
    with pytest.raises(ConfigurationError):
        CandidateSweep(template, (13, params.MAX_MINISLOTS + 1))
    with pytest.raises(ConfigurationError):
        CandidateSweep(template, estimates=((2, 0.0),))
    assert CandidateSweep(template, [13, 3]).lengths == (13, 3)


def _counted_replays(monkeypatch):
    """The cycle lengths ``SchedulePlan.replay`` runs at, in order."""
    replays = []
    original = SchedulePlan.replay

    def counting_replay(plan, config, wcrt_estimates=None, gd_cycle=None):
        replays.append(gd_cycle)
        return original(plan, config, wcrt_estimates, gd_cycle)

    monkeypatch.setattr(SchedulePlan, "replay", counting_replay)
    return replays


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("step", [0, 20], ids=["fresh", "after_singles"])
def test_st_sweep_reuses_cached_schedules_and_keeps_none_of_its_own(
    backend, step, monkeypatch
):
    """A sweep wider than the schedule cache, on a fresh context or
    after singleton analyses of every *step*-th length: it replays
    exactly the other lengths, once each, and leaves both context
    caches as the singletons left them (empty when there were none)."""
    system = paper_system(3, 1, seed=23)
    template, lo, hi = _static_variants(system, EE_BUS)[0]
    lengths = tuple(sweep_lengths(lo, hi, 80))
    assert len(lengths) > context_module._MAX_SCHEDULE_ENTRIES
    singles = lengths[::step] if step else ()
    context = AnalysisContext(system, AnalysisOptions(backend=backend))
    for n in singles:
        context.analyse(template.with_dyn_length(n))
    schedules = list(context._schedule_cache.items())
    plans = list(context._backend_plans.items())
    assert len(schedules) == len(singles)
    assert len(plans) == (len(singles) if backend == "native" else 0)
    expected = [AnalysisContext(system).analyse(template.with_dyn_length(n))
                for n in lengths]
    assert all(r.feasible for r in expected)
    replays = _counted_replays(monkeypatch)
    entries = context.analyse_sweep(CandidateSweep(template, lengths))
    assert replays == [
        r.config.gd_cycle for n, r in zip(lengths, expected) if n not in singles
    ]
    for cache, before in ((context._schedule_cache, schedules),
                          (context._backend_plans, plans)):
        assert [k for k in cache] == [k for k, _ in before]
        assert all(cache[k] is v for k, v in before)
    assert [_signature(e) for e in entries] == [_signature(r) for r in expected]
    best = _best_index(expected)
    assert entries[best].table.record.finish == expected[best].table.record.finish


@pytest.mark.parametrize("backend", BACKENDS)
def test_pure_dyn_sweep_replays_once_and_keeps_its_schedule(
    backend, monkeypatch
):
    """Without ST messages one schedule key serves the whole sweep: it
    is replayed once and stays cached, with its one group plan."""
    system = fig4_system()
    template, lengths = _first_variant(system)
    context = AnalysisContext(system, AnalysisOptions(backend=backend))
    replays = _counted_replays(monkeypatch)
    context.analyse_sweep(CandidateSweep(template, lengths))
    assert len(replays) == 1
    assert len(context._schedule_cache) == 1
    assert len(context._backend_plans) == (1 if backend == "native" else 0)

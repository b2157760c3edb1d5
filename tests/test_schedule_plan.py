"""Retimable schedule plan: replay equivalence and retiming.

The tentpole property: a :class:`SchedulePlan` built once per bus-speed
parameter set must, replayed at any cycle geometry, produce a table
byte-identical to a from-scratch ``build_schedule`` at that geometry --
including the satellite property that building at ``gd_cycle=C1`` and
retiming/replaying to ``C2`` equals building fresh at ``C2``.
"""

import random

import pytest

from repro.analysis.priorities import critical_path_priorities
from repro.analysis.schedule_table import ScheduleTable
from repro.analysis.scheduler import SchedulePlan, ScheduleOptions, build_schedule
from repro.core.bbc import basic_configuration
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.synth import paper_suite

from tests.util import fig4_system


def _table_fingerprint(table):
    """Every observable of a schedule table, absolute times included."""
    return (
        table.horizon,
        {k: (e.task.name, e.start, e.finish) for k, e in table.tasks.items()},
        {
            k: (
                e.message.name, e.cycle, e.slot, e.offset, e.ct,
                e.slot_start, e.start, e.finish,
            )
            for k, e in table.messages.items()
        },
        {n: table.busy_intervals(n) for n in _nodes_of(table)},
        dict(table.record.frame_used),
    )


def _nodes_of(table):
    return sorted({e.task.node for e in table.tasks.values()})


def _sweep_configs(system, per_system=8):
    options = BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    return [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, per_system)
    ]


class TestReplayEquivalence:
    @pytest.mark.parametrize("fps_aware", [False, True])
    def test_plan_replay_equals_fresh_build(self, fps_aware):
        """One plan, replayed across a DYN sweep == per-config builds."""
        rng = random.Random(20070429)
        options = ScheduleOptions(fps_aware=fps_aware)
        for n_nodes in (2, 3, 4):
            system = paper_suite(
                n_nodes, count=1, seed=rng.randrange(10_000)
            )[0]
            configs = _sweep_configs(system)
            plan = None
            for config in configs:
                fresh = build_schedule(system, config, options)
                if plan is None:
                    plan = SchedulePlan(
                        system,
                        options,
                        critical_path_priorities(system.application, config),
                    )
                replayed = ScheduleTable.from_record(config, plan.replay(config))
                assert _table_fingerprint(replayed) == _table_fingerprint(
                    fresh
                ), f"replay diverged ({n_nodes} nodes, {config.describe()})"

    def test_build_at_c1_replayed_at_c2_equals_fresh_c2(self):
        """The retiming satellite property, ST messages included."""
        system = paper_suite(4, count=1, seed=23)[0]
        assert system.application.st_messages()
        configs = _sweep_configs(system)
        c1, c2 = configs[0], configs[-1]
        assert c1.gd_cycle != c2.gd_cycle
        options = ScheduleOptions()
        plan = SchedulePlan(
            system, options, critical_path_priorities(system.application, c1)
        )
        plan.replay(c1)  # "build at C1" -- replay must be stateless
        replayed = ScheduleTable.from_record(c2, plan.replay(c2))
        assert _table_fingerprint(replayed) == _table_fingerprint(
            build_schedule(system, c2, options)
        )

    def test_no_st_messages_tables_identical_across_sweep(self):
        """Purely event-triggered systems: one placement set, retimed."""
        system = fig4_system()
        configs = _sweep_configs(system)
        options = ScheduleOptions()
        plan = SchedulePlan(
            system,
            options,
            critical_path_priorities(system.application, configs[0]),
        )
        first = ScheduleTable.from_record(configs[0], plan.replay(configs[0]))
        for config in configs[1:]:
            table = build_schedule(system, config, options)
            # Index-space placements coincide...
            assert table.tasks == first.tasks
            assert table.messages == first.messages
            # ... so retiming the first table IS the fresh build.
            assert _table_fingerprint(
                first.retime_for(config)
            ) == _table_fingerprint(table)


class TestRetimeFor:
    def test_retime_rebinds_derived_message_times(self):
        system = paper_suite(4, count=1, seed=23)[0]
        configs = _sweep_configs(system)
        c1 = configs[0]
        table = build_schedule(system, c1)
        c2 = c1.with_dyn_length(c1.n_minislots + 40)
        retimed = table.retime_for(c2)
        assert retimed.config is c2
        for key, entry in retimed.messages.items():
            original = table.messages[key]
            # Placement indices are preserved bit for bit...
            assert (entry.cycle, entry.slot, entry.offset, entry.ct) == (
                original.cycle, original.slot, original.offset, original.ct
            )
            assert entry == original  # dataclass equality is index-space
            # ... while derived absolute times follow the new geometry.
            expected = (
                entry.cycle * c2.gd_cycle
                + (entry.slot - 1) * c2.gd_static_slot
            )
            assert entry.slot_start == expected
            if entry.cycle > 0:
                assert entry.slot_start != original.slot_start

"""Unit tests for the static schedule table: the first-fit and slot
arithmetic of the schedule replay, and the view over its record."""

import pytest

from repro.analysis.schedule_table import first_gap
from repro.analysis.scheduler import _slot_instance, build_schedule
from repro.core.config import FlexRayConfig
from repro.errors import SchedulingError

from tests.util import fig3_system, schedule_view, scs_task, single_graph_system


@pytest.fixture
def cfg():
    # ST: 2 slots x 8 MT, DYN: 13 minislots x 1 MT -> gdCycle 29
    return FlexRayConfig(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=13)


def task_view(cfg, *placements):
    """A view of SCS tasks ``(name, node, wcet, start)`` placed by hand."""
    tasks = [scs_task(name, wcet=wcet, node=node) for name, node, wcet, _ in placements]
    app = single_graph_system(tasks).application
    return schedule_view(
        cfg, app, [(f"{t.name}#0", t, p[3]) for t, p in zip(tasks, placements)]
    )


class TestTaskPlacement:
    def test_add_and_lookup(self, cfg):
        table = task_view(cfg, ("a", "N1", 5, 10))
        assert table.tasks["a#0"].finish == 15
        assert table.finish_of("a#0") == 15
        assert table.busy_intervals("N1") == [(10, 15)]

    def test_rejects_overlap(self):
        # A task ready inside a busy interval starts when it ends.
        assert first_gap([(10, 15)], 12, 5) == (15, 1)

    def test_adjacent_placements_allowed(self):
        busy = []
        for earliest in (10, 15, 5):
            start, i = first_gap(busy, earliest, 5)
            assert start == earliest  # touching an interval is no overlap
            busy.insert(i, (start, start + 5))
        assert busy == [(5, 10), (10, 15), (15, 20)]

    def test_nodes_tracked_separately(self, cfg):
        table = task_view(cfg, ("a", "N1", 5, 10), ("b", "N2", 5, 10))
        assert table.busy_intervals("N2") == [(10, 15)]


class TestFirstFit:
    """``first_gap`` returns the start and the insertion index."""

    def test_empty_node(self):
        assert first_gap([], 7, 5) == (7, 0)

    def test_skips_busy(self):
        assert first_gap([(5, 15)], 0, 6) == (15, 1)  # gap [0,5) too small

    def test_uses_leading_gap_when_big_enough(self):
        assert first_gap([(5, 15)], 0, 5) == (0, 0)

    def test_between_intervals(self):
        busy = [(0, 5), (12, 17)]
        assert first_gap(busy, 0, 7) == (5, 1)  # gap [5, 12) just fits
        assert first_gap(busy, 0, 8) == (17, 2)
        assert first_gap(busy, 6, 7) == (17, 2)

    def test_rejects_zero_duration(self):
        with pytest.raises(SchedulingError):
            first_gap([], 0, 0)


class TestMessagePlacement:
    def test_add_message_offsets_accumulate(self, cfg):
        # t2 (N2) sends m2 (3 MT) and m3 (2 MT): both go into N2's slot 2
        # of cycle 0, one after the other.
        table = build_schedule(fig3_system(), cfg)
        e2 = table.messages["m2#0"]
        e3 = table.messages["m3#0"]
        assert e2.offset == 0 and e2.slot_start == 8
        assert e2.finish == 11
        assert e3.offset == 3
        assert e3.finish == 8 + 3 + 2
        assert table.record.frame_used[(0, 2)] == 5

    def test_rejects_frame_overflow(self, cfg):
        # N1's slot 1 carries 8 MT: after two 4 MT frames a third one
        # goes to the next cycle's instance, or nowhere before the limit.
        slots = ((1, 0),)
        args = (cfg.gd_cycle, cfg.gd_static_slot)
        assert _slot_instance({(0, 1): 4}, slots, 0, 4, *args, 100) == ((0, 1), 0, 4)
        assert _slot_instance({(0, 1): 8}, slots, 0, 4, *args, 100) == ((1, 1), 29, 0)
        assert _slot_instance({(0, 1): 8}, slots, 0, 4, *args, 29) is None

"""Unit tests for the static schedule table."""

import pytest

from repro.analysis.schedule_table import ScheduleTable
from repro.core.config import FlexRayConfig
from repro.errors import SchedulingError

from tests.util import fig3_system, scs_task, st_msg


@pytest.fixture
def cfg():
    return FlexRayConfig(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=13)


@pytest.fixture
def table(cfg):
    return ScheduleTable(cfg, horizon=100)


class TestTaskPlacement:
    def test_add_and_lookup(self, table):
        t = scs_task("a", wcet=5, node="N1")
        entry = table.add_task("a#0", t, start=10)
        assert entry.finish == 15
        assert table.finish_of("a#0") == 15
        assert table.busy_intervals("N1") == [(10, 15)]

    def test_rejects_duplicate_job(self, table):
        t = scs_task("a", wcet=5)
        table.add_task("a#0", t, 0)
        with pytest.raises(SchedulingError, match="already"):
            table.add_task("a#0", t, 20)

    def test_rejects_overlap(self, table):
        table.add_task("a#0", scs_task("a", wcet=5), 10)
        with pytest.raises(SchedulingError, match="overlaps"):
            table.add_task("b#0", scs_task("b", wcet=5), 12)

    def test_adjacent_placements_allowed(self, table):
        table.add_task("a#0", scs_task("a", wcet=5), 10)
        table.add_task("b#0", scs_task("b", wcet=5), 15)
        table.add_task("c#0", scs_task("c", wcet=5), 5)
        assert table.busy_intervals("N1") == [(5, 10), (10, 15), (15, 20)]

    def test_nodes_tracked_separately(self, table):
        table.add_task("a#0", scs_task("a", wcet=5, node="N1"), 10)
        table.add_task("b#0", scs_task("b", wcet=5, node="N2"), 10)
        assert table.busy_intervals("N2") == [(10, 15)]


class TestFirstFit:
    def test_empty_node(self, table):
        assert table.first_fit("N1", 7, 5) == 7

    def test_skips_busy(self, table):
        table.add_task("a#0", scs_task("a", wcet=10), 5)
        assert table.first_fit("N1", 0, 6) == 15  # gap [0,5) too small

    def test_uses_leading_gap_when_big_enough(self, table):
        table.add_task("a#0", scs_task("a", wcet=10), 5)
        assert table.first_fit("N1", 0, 5) == 0

    def test_between_intervals(self, table):
        table.add_task("a#0", scs_task("a", wcet=5), 0)
        table.add_task("b#0", scs_task("b", wcet=5), 12)
        assert table.first_fit("N1", 0, 7) == 5  # gap [5, 12) just fits
        assert table.first_fit("N1", 0, 8) == 17
        assert table.first_fit("N1", 6, 7) == 17

    def test_rejects_zero_duration(self, table):
        with pytest.raises(SchedulingError):
            table.first_fit("N1", 0, 0)


class TestMessagePlacement:
    def test_add_message_offsets_accumulate(self, table):
        sys_ = fig3_system()
        m2 = sys_.application.message("m2")
        m3 = sys_.application.message("m3")
        e2 = table.add_message("m2#0", m2, cycle=0, slot=2)
        e3 = table.add_message("m3#0", m3, cycle=0, slot=2)
        assert e2.offset == 0 and e2.slot_start == 8
        assert e2.finish == 11
        assert e3.offset == 3
        assert e3.finish == 8 + 3 + 2
        assert table.frame_used(0, 2) == 5

    def test_rejects_frame_overflow(self, table):
        sys_ = fig3_system()
        m1 = sys_.application.message("m1")  # 4 MT, slot payload 8 MT
        table.add_message("m1#0", m1, 0, 1)
        table.add_message("m1#1", m1, 0, 1)
        with pytest.raises(SchedulingError, match="does not fit"):
            table.add_message("m1#2", m1, 0, 1)

    def test_st_message_entries_sorted(self, table):
        sys_ = fig3_system()
        m1 = sys_.application.message("m1")
        m2 = sys_.application.message("m2")
        table.add_message("m2#0", m2, 0, 2)
        table.add_message("m1#0", m1, 0, 1)
        entries = table.st_message_entries()
        assert [e.job_key for e in entries] == ["m1#0", "m2#0"]

    def test_makespan(self, table):
        sys_ = fig3_system()
        table.add_task("a#0", scs_task("a", wcet=5), 40)
        table.add_message("m2#0", sys_.application.message("m2"), 1, 2)
        # slot start = 29 + 8 = 37, finish 40; task finish 45
        assert table.makespan() == 45

    def test_rejects_bad_horizon(self, cfg):
        with pytest.raises(SchedulingError):
            ScheduleTable(cfg, horizon=0)

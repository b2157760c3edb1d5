"""Unit tests for the node availability function."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.availability import NodeAvailability, merge_intervals
from repro.errors import AnalysisError


class TestMergeIntervals:
    def test_disjoint_sorted(self):
        assert merge_intervals([(5, 7), (0, 2)]) == [(0, 2), (5, 7)]

    def test_overlap_merged(self):
        assert merge_intervals([(0, 4), (2, 6)]) == [(0, 6)]

    def test_touching_merged(self):
        assert merge_intervals([(0, 2), (2, 4)]) == [(0, 4)]

    def test_empty_dropped(self):
        assert merge_intervals([(3, 3), (1, 2)]) == [(1, 2)]

    def test_nested(self):
        assert merge_intervals([(0, 10), (2, 3)]) == [(0, 10)]


class TestNodeAvailability:
    def test_slack_per_period(self):
        av = NodeAvailability([(2, 5), (8, 10)], period=10)
        assert av.slack_per_period == 5

    def test_is_busy_wraps_periodically(self):
        av = NodeAvailability([(2, 5)], period=10)

        def is_busy(t):
            return av.available_in(t, t + 1) == 0

        assert is_busy(3)
        assert not is_busy(0)
        assert is_busy(13)
        assert not is_busy(15)

    def test_available_in_within_one_period(self):
        av = NodeAvailability([(2, 5)], period=10)
        assert av.available_in(0, 10) == 7
        assert av.available_in(2, 5) == 0
        assert av.available_in(0, 3) == 2

    def test_available_in_across_periods(self):
        av = NodeAvailability([(2, 5)], period=10)
        assert av.available_in(0, 20) == 14
        assert av.available_in(4, 12) == 7  # [4,5) busy; [5,10) and [10,12) free

    def test_available_empty_window(self):
        av = NodeAvailability([(2, 5)], period=10)
        assert av.available_in(5, 5) == 0
        assert av.available_in(7, 3) == 0

    def test_advance_simple(self):
        av = NodeAvailability([(2, 5)], period=10)
        assert av.advance(0, 2) == 2
        assert av.advance(0, 3) == 6  # 2 free, then busy until 5, 1 more
        assert av.advance(3, 1) == 6

    def test_advance_zero_demand(self):
        av = NodeAvailability([(2, 5)], period=10)
        assert av.advance(4, 0) == 4

    def test_advance_across_periods(self):
        av = NodeAvailability([(0, 9)], period=10)  # 1 MT slack per period
        assert av.advance(0, 3) == 30

    def test_advance_no_slack_returns_none(self):
        av = NodeAvailability([(0, 10)], period=10)
        assert av.advance(0, 1) is None

    def test_advance_full_slack(self):
        av = NodeAvailability([], period=10)
        assert av.advance(7, 5) == 12

    def test_advance_result_consistent_with_available_in(self):
        av = NodeAvailability([(1, 3), (4, 8)], period=10)
        for t0 in range(0, 12):
            for demand in range(1, 15):
                t = av.advance(t0, demand)
                assert av.available_in(t0, t) == demand
                # minimality: one tick earlier serves strictly less
                assert av.available_in(t0, t - 1) < demand

    def test_busy_starts(self):
        av = NodeAvailability([(2, 5), (8, 10)], period=10)
        assert av.critical_instants() == [0, 2, 8]

    def test_rejects_interval_outside_period(self):
        with pytest.raises(AnalysisError):
            NodeAvailability([(5, 12)], period=10)

    def test_rejects_negative_demand(self):
        av = NodeAvailability([], period=10)
        with pytest.raises(AnalysisError):
            av.advance(0, -1)

    def test_rejects_bad_period(self):
        with pytest.raises(AnalysisError):
            NodeAvailability([], period=0)


class TestAdvanceBisectEquivalence:
    """The bisecting ``advance`` must match the reference gap walk."""

    @staticmethod
    def _walk_advance(av, t0, demand):
        """The pre-optimisation implementation, kept as the oracle."""
        if demand == 0:
            return t0
        if not av.busy:
            return t0 + demand
        slack = av.slack_per_period
        if slack == 0:
            return None
        period = av.period
        gaps = list(zip(av._gap_starts_arr, av._gap_ends))
        remaining = demand
        whole = (remaining - 1) // slack
        t = t0 + whole * period
        remaining -= whole * slack
        while remaining > 0:
            base = (t // period) * period
            x = t - base
            for s, e in gaps:
                lo = s if s > x else x
                if lo >= e:
                    continue
                room = e - lo
                if room >= remaining:
                    return base + lo + remaining
                remaining -= room
            t = base + period
        return t

    def test_fuzz_against_reference_walk(self):
        import random

        rng = random.Random(20070501)
        for _ in range(1500):
            period = rng.randint(1, 60)
            busy = []
            for _ in range(rng.randint(0, 6)):
                s = rng.randint(0, period - 1)
                busy.append((s, rng.randint(s + 1, period)))
            av = NodeAvailability(busy, period)
            for _ in range(12):
                t0 = rng.randint(0, 4 * period)
                demand = rng.randint(0, 5 * period)
                assert av.advance(t0, demand) == self._walk_advance(
                    av, t0, demand
                ), (period, busy, t0, demand)

    def test_instant_tables_consistent_with_advance(self):
        av = NodeAvailability([(2, 5), (8, 10)], period=12)
        tables = av.instant_advance_tables()
        instants, before, slack, period, gap_ends, through, eval_order = tables
        assert instants == av.critical_instants()
        assert slack == av.slack_per_period and period == av.period
        # The evaluation order is a permutation sorted by descending
        # initial busy-run length: instant 2 blocks for 3, instant 8 for
        # 2, instant 0 not at all.
        assert sorted(eval_order) == list(range(len(instants)))
        assert [instants[i] for i in eval_order] == [2, 8, 0]
        for idx, t0 in enumerate(instants):
            for demand in range(1, 3 * period):
                target = before[idx] + demand
                whole, rem = divmod(target - 1, slack)
                import bisect

                k = bisect.bisect_left(through, rem + 1)
                end = whole * period + gap_ends[k] - (through[k] - rem - 1)
                assert end == av.advance(t0, demand)

    def test_idle_pattern_tables(self):
        """An idle node is the one-gap staircase ``[0, period)``."""
        av = NodeAvailability([], period=10)
        tables = av.instant_advance_tables()
        assert tables.instants == [0]
        assert tables.slack_before == [0]
        assert tables.slack_per_period == tables.period == 10
        assert tables.gap_ends == tables.slack_through == [10]
        assert tables.eval_order == (0,)
        # Demand is served back to back.
        assert [av.advance(t0, d) for t0, d in ((0, 4), (7, 5), (23, 20))] == [
            4, 12, 43,
        ]

    def test_tables_are_a_named_tuple(self):
        """The kernel tables are an :class:`InstantTables` -- positional
        layout stable for the inlined kernels, names for everyone else."""
        from repro.analysis.availability import InstantTables

        av = NodeAvailability([(2, 5)], period=10)
        tables = av.instant_advance_tables()
        assert isinstance(tables, InstantTables)
        assert tables.instants == tables[0]
        assert tables.eval_order == tables[6]
        assert len(tables) == 7
        # Built once in the constructor: every request returns the same
        # tables.
        assert av.instant_advance_tables() is tables


def _reference_tables(busy, period):
    """The two-pass construction: ``merge_intervals``, then the tables."""
    merged = merge_intervals(busy)
    for s, e in merged:
        if s < 0 or e > period:
            raise AnalysisError(
                f"busy interval ({s}, {e}) escapes the period [0, {period})"
            )
    gaps, through, before = [], [], [0]
    blocks = [merged[0][1] if merged and merged[0][0] == 0 else 0]
    acc = prev = 0
    for s, e in merged:
        if s > prev:
            gaps.append((prev, s))
            acc += s - prev
            through.append(acc)
        before.append(acc)
        blocks.append(e - s)
        prev = e
    if prev < period:
        gaps.append((prev, period))
        acc += period - prev
        through.append(acc)
    eval_order = tuple(sorted(range(len(blocks)), key=lambda i: -blocks[i]))
    tables = (
        [0] + [s for s, _ in merged],
        before,
        acc,
        period,
        [e for _, e in gaps],
        through,
        eval_order,
    )
    return merged, gaps, [s for s, _ in gaps], tables


class TestOnePassTables:
    """``NodeAvailability`` merges and tabulates in one pass; it must
    build exactly what merging first and tabulating after builds."""

    @given(
        busy=st.lists(
            st.tuples(st.integers(-3, 60), st.integers(-3, 60)), max_size=12
        ),
        period=st.integers(1, 60),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_merge_intervals_reference(self, busy, period):
        try:
            expected = _reference_tables(busy, period)
        except AnalysisError as exc:
            with pytest.raises(AnalysisError) as got:
                NodeAvailability(busy, period)
            assert str(got.value) == str(exc)
            return
        av = NodeAvailability(busy, period)
        merged, gaps, gap_starts, tables = expected
        assert av.busy == merged
        assert list(zip(av._gap_starts_arr, av._gap_ends)) == gaps
        assert av._gap_starts_arr == gap_starts
        assert tuple(av.instant_advance_tables()) == tables
        assert av.slack_per_period == tables[2]
        assert av.critical_instants() == tables[0]

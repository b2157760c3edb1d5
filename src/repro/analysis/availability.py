"""Node availability function.

FPS tasks execute only in the *slack* of the static schedule (Section 2
of the paper).  The static schedule of a node defines a periodic pattern
of busy intervals over the hyper-period; this module answers "starting at
time t0, when has the node delivered x macroticks of slack?" -- the
primitive the FPS response-time analysis is built on.

Beyond the point queries, each :class:`NodeAvailability` builds the
prefix-sum :class:`InstantTables` that turn ``advance`` into a
``divmod`` plus a bisect for the busy-window maximisation of
:func:`repro.analysis.fps.resolved_busy_window`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import AnalysisError


class InstantTables(NamedTuple):
    """Raw per-instant tables of the inlined busy-window kernel.

    Everything :func:`repro.analysis.fps.resolved_busy_window` needs to
    compute ``advance(instant, demand)`` without a method call.  An idle
    node (no busy intervals) is the one-gap staircase: ``slack_before ==
    [0]`` and ``gap_ends == slack_through == [period]``.
    """

    #: Candidate busy-window origins: time 0 plus every busy start.
    instants: List[int]
    #: Pattern slack before each instant.
    slack_before: List[int]
    #: Available macroticks per period.
    slack_per_period: int
    #: Length of the repeating pattern.
    period: int
    #: End of gap k.
    gap_ends: List[int]
    #: Pattern slack through gap k, inclusive.
    slack_through: List[int]
    #: Instant indices, longest initial busy run first -- the order that
    #: makes the kernel's incremental per-instant bound prune best.
    eval_order: Tuple[int, ...]


def merge_intervals(intervals: Sequence[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge possibly-overlapping (start, end) intervals; drops empty ones."""
    cleaned = sorted((s, e) for s, e in intervals if e > s)
    merged: List[Tuple[int, int]] = []
    for s, e in cleaned:
        if merged and s <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], e))
        else:
            merged.append((s, e))
    return merged


def wrap_busy_intervals(intervals, period):
    """Fold absolute busy intervals into the periodic pattern [0, period).

    The static scheduler may place jobs beyond the hyper-period when a
    candidate configuration is overloaded (the spill is exactly what the
    cost function later reports as deadline misses); for the FPS
    availability pattern the spill occupies the start of the next period,
    so each interval is wrapped modulo *period* and split at boundaries.
    An interval spanning a whole period makes the node permanently busy.
    """
    wrapped = []
    for s, e in intervals:
        if e - s >= period:
            return [(0, period)]
        s_mod = s % period
        length = e - s
        if s_mod + length <= period:
            wrapped.append((s_mod, s_mod + length))
        else:
            wrapped.append((s_mod, period))
            wrapped.append((0, s_mod + length - period))
    return merge_intervals(wrapped)


class NodeAvailability:
    """Periodic availability pattern of one node.

    Parameters
    ----------
    busy:
        Busy (SCS-occupied) intervals within one period ``[0, period)``.
        Intervals crossing the period boundary must be split by the
        caller (the schedule table never produces crossing intervals
        because SCS jobs complete within the horizon).
    period:
        Length of the repeating pattern (the application hyper-period).
    """

    def __init__(self, busy: Sequence[Tuple[int, int]], period: int):
        if period <= 0:
            raise AnalysisError(f"availability period must be positive, got {period}")
        # Precomputed once, in one pass over the sorted intervals that
        # merges overlapping and touching ones as it goes: the
        # response-time fix points call ``advance`` millions of times per
        # optimiser run and none of this changes after construction.
        # ``gap_ends[k]`` is the end of gap k and ``through[k]`` the
        # pattern slack up to and including gap k, so ``advance`` can
        # bisect instead of walking the gap list.  The critical instants
        # are time 0 and every merged busy start; ``before`` holds the
        # pattern slack before each (merged intervals never touch, so
        # every busy start but a leading one at 0 closes a gap), and
        # ``blocks`` the busy run starting at each.
        spans = sorted(busy)
        merged: List[Tuple[int, int]] = []
        instants = [0]
        gap_starts: List[int] = []
        gap_ends: List[int] = []
        through: List[int] = []
        before = [0]
        blocks = [0]
        acc = 0
        prev = 0
        i = 0
        n = len(spans)
        while i < n:
            s, e = spans[i]
            i += 1
            if e <= s:
                continue  # empty
            while i < n and spans[i][0] <= e:
                if spans[i][1] > e:
                    e = spans[i][1]
                i += 1
            if s < 0 or e > period:
                raise AnalysisError(
                    f"busy interval ({s}, {e}) escapes the period [0, {period})"
                )
            merged.append((s, e))
            if s > prev:
                gap_starts.append(prev)
                gap_ends.append(s)
                acc += s - prev
                through.append(acc)
            elif not s:
                blocks[0] = e  # a leading busy run blocks time 0 too
            instants.append(s)
            before.append(acc)
            blocks.append(e - s)
            prev = e
        if prev < period:
            gap_starts.append(prev)
            gap_ends.append(period)
            acc += period - prev
            through.append(acc)
        self.period = period
        self.busy = merged
        self._busy_per_period = period - acc
        self._critical_instants = instants
        self._gap_starts_arr = gap_starts
        self._gap_ends = gap_ends
        self._slack_through = through
        # Evaluation order for the busy-window maximisation: instants
        # sorted by descending initial busy-run length (ties by index:
        # the sort is stable).  Instants with long initial blocking
        # tend to produce the largest busy windows, so visiting them
        # first makes the incremental per-instant bound of
        # :func:`repro.analysis.fps.resolved_busy_window` prune the rest
        # early.  The maximisation result is order-independent.
        longest_first = [-b for b in blocks]
        eval_order = tuple(
            sorted(range(len(blocks)), key=longest_first.__getitem__)
        )
        self._tables = InstantTables(
            instants, before, acc, period, gap_ends, through, eval_order
        )

    def instant_advance_tables(self) -> InstantTables:
        """Tables for the inlined busy-window kernel, as :class:`InstantTables`.

        Built once in ``__init__``; see
        :func:`repro.analysis.fps.resolved_busy_window` for the consumer.
        """
        return self._tables

    @property
    def slack_per_period(self) -> int:
        """Available macroticks in one period."""
        return self.period - self._busy_per_period

    def available_in(self, t0: int, t1: int) -> int:
        """Slack macroticks inside the absolute window [t0, t1)."""
        if t1 <= t0:
            return 0
        return (t1 - t0) - self._busy_in(t0, t1)

    def _busy_in(self, t0: int, t1: int) -> int:
        full_periods, x0 = divmod(t0, self.period)
        total = 0
        # advance t0 to the next period boundary
        first_end = (full_periods + 1) * self.period
        if t1 <= first_end:
            return self._busy_in_pattern(x0, t1 - full_periods * self.period)
        total += self._busy_in_pattern(x0, self.period)
        t = first_end
        whole = (t1 - t) // self.period
        total += whole * self._busy_per_period
        t += whole * self.period
        total += self._busy_in_pattern(0, t1 - t)
        return total

    def _busy_in_pattern(self, a: int, b: int) -> int:
        """Busy time within [a, b) where 0 <= a <= b <= period."""
        total = 0
        for s, e in self.busy:
            lo = max(s, a)
            hi = min(e, b)
            if hi > lo:
                total += hi - lo
        return total

    def advance(self, t0: int, demand: int) -> Optional[int]:
        """Earliest absolute time t >= t0 with ``available_in(t0, t) == demand``.

        Returns ``None`` when the pattern has no slack at all (demand can
        never be served).
        """
        if demand < 0:
            raise AnalysisError(f"demand must be >= 0, got {demand}")
        if demand == 0:
            return t0
        slack = self.period - self._busy_per_period
        if slack == 0:
            return None
        period = self.period
        full, x = divmod(t0, period)
        # Slack already consumed by the pattern before offset x.
        starts = self._gap_starts_arr
        through = self._slack_through
        i = bisect_right(starts, x) - 1
        if i < 0:
            before_x = 0
        else:
            end = self._gap_ends[i]
            before_x = through[i] - (end - min(end, x))
        # Serve the demand at pattern offset where the cumulative slack
        # since offset 0 reaches ``before_x + demand`` (spilling whole
        # periods first).
        target = before_x + demand
        whole, target = divmod(target - 1, slack)
        target += 1
        k = bisect_left(through, target)
        pos = self._gap_ends[k] - (through[k] - target)
        return (full + whole) * period + pos

    def critical_instants(self) -> List[int]:
        """Candidate busy-window origins: time 0 plus every busy start."""
        return self._critical_instants

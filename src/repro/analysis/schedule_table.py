"""Static schedule table.

Holds the off-line computed start times of SCS tasks and the (cycle,
slot, in-frame offset) placement of ST messages -- the artefact the
paper's ``GlobalSchedulingAlgorithm`` (Fig. 2) produces and each node's
CPU consults at run time ("2/2" entries in Fig. 1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.config import FlexRayConfig
from repro.errors import SchedulingError
from repro.flexray.timeline import st_slot_start
from repro.model.message import Message
from repro.model.task import Task


@dataclass(frozen=True)
class ScheduledTask:
    """Placement of one SCS task instance."""

    job_key: str
    task: Task
    start: int

    @property
    def finish(self) -> int:
        """Absolute completion time."""
        return self.start + self.task.wcet


@dataclass(frozen=True)
class ScheduledMessage:
    """Placement of one ST message instance inside a static frame.

    The placement itself is *retimable*: only the (cycle, slot, offset)
    coordinates and the transmission time are stored; absolute macrotick
    times are derived on demand from the bound :class:`FlexRayConfig`
    view through :mod:`repro.flexray.timeline`.  Rebinding the entry to
    a configuration with a different cycle length (see
    :meth:`ScheduleTable.retime_for`) therefore shifts every derived
    time consistently without touching the stored placement.
    """

    job_key: str
    message: Message
    cycle: int
    slot: int
    offset: int  # macroticks into the frame payload
    ct: int  # transmission time of this message
    #: The configuration view absolute times are derived from; excluded
    #: from equality so rebound copies compare placement-identical.
    config: FlexRayConfig = field(compare=False, repr=False)

    @property
    def slot_start(self) -> int:
        """Absolute start of the slot instance under the bound config."""
        return st_slot_start(self.config, self.cycle, self.slot)

    @property
    def start(self) -> int:
        """Absolute time the message's bytes start on the bus."""
        return self.slot_start + self.offset

    @property
    def finish(self) -> int:
        """Absolute time the message is fully received."""
        return self.start + self.ct


class ScheduleTable:
    """Mutable builder/container for the static schedule.

    Tracks, per node, the busy intervals occupied by SCS tasks (used both
    for placement and as the FPS availability pattern) and, per static
    slot instance, the frame payload already consumed by packed ST
    messages.
    """

    def __init__(self, config: FlexRayConfig, horizon: int):
        if horizon <= 0:
            raise SchedulingError(f"schedule horizon must be positive, got {horizon}")
        self.config = config
        self.horizon = horizon
        self.tasks: Dict[str, ScheduledTask] = {}
        self.messages: Dict[str, ScheduledMessage] = {}
        self._node_busy: Dict[str, List[Tuple[int, int]]] = {}
        self._frame_used: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # task placement
    # ------------------------------------------------------------------
    def busy_intervals(self, node: str) -> List[Tuple[int, int]]:
        """Sorted, disjoint (start, end) intervals occupied by SCS tasks."""
        return list(self._node_busy.get(node, []))

    def first_fit(self, node: str, earliest: int, duration: int) -> int:
        """Earliest start >= *earliest* of a gap of *duration* MT on *node*."""
        if duration <= 0:
            raise SchedulingError(f"duration must be positive, got {duration}")
        t = max(0, earliest)
        for s, e in self._node_busy.get(node, []):
            if e <= t:
                continue
            if s >= t + duration:
                break
            t = max(t, e)
        return t

    def gap_starts(self, node: str, earliest: int, duration: int, limit: int) -> List[int]:
        """Up to *limit* candidate start times (one per gap) for a task.

        The first candidate is the first-fit start; each later candidate
        is the first fit after the busy interval that bounds the previous
        candidate's gap, i.e. exactly one candidate per distinct gap that
        can hold *duration* macroticks.  Public helper for placement
        exploration (the built-in FPS-aware heuristic of Fig. 2 line 11
        currently spreads candidates over the slack window via
        ``first_fit`` instead -- see ``scheduler._placement_candidates``).
        Candidates are strictly increasing; abutting busy intervals are
        treated as one blocked region.
        """
        if limit < 1:
            return []
        candidates: List[int] = []
        busy = self._node_busy.get(node, [])
        t = max(0, earliest)
        while len(candidates) < limit:
            start = self.first_fit(node, t, duration)
            candidates.append(start)
            # The gap holding [start, start + duration) extends to the
            # first busy interval at or beyond the placement's end (any
            # earlier interval would have blocked the first fit).  The
            # next distinct gap begins after that interval.
            idx = bisect.bisect_left(busy, (start + duration, -1))
            if idx == len(busy):
                break  # the candidate lies in the unbounded tail gap
            t = busy[idx][1]
        return candidates

    def add_task(self, job_key: str, task: Task, start: int) -> ScheduledTask:
        """Record an SCS task instance at *start*; rejects overlaps."""
        if job_key in self.tasks:
            raise SchedulingError(f"job {job_key!r} already scheduled")
        end = start + task.wcet
        intervals = self._node_busy.setdefault(task.node, [])
        idx = bisect.bisect_left(intervals, (start, end))
        for neighbour in intervals[max(0, idx - 1) : idx + 1]:
            if neighbour[0] < end and start < neighbour[1]:
                raise SchedulingError(
                    f"job {job_key!r} at [{start}, {end}) overlaps interval "
                    f"{neighbour} on node {task.node!r}"
                )
        intervals.insert(idx, (start, end))
        entry = ScheduledTask(job_key=job_key, task=task, start=start)
        self.tasks[job_key] = entry
        return entry

    # ------------------------------------------------------------------
    # message placement
    # ------------------------------------------------------------------
    def frame_used(self, cycle: int, slot: int) -> int:
        """Payload macroticks already packed into slot instance (cycle, slot)."""
        return self._frame_used.get((cycle, slot), 0)

    def add_message(
        self, job_key: str, message: Message, cycle: int, slot: int
    ) -> ScheduledMessage:
        """Pack an ST message instance into static slot (cycle, slot).

        The message occupies the next free payload position of the frame;
        rejects the placement when the frame has no room left.
        """
        if job_key in self.messages:
            raise SchedulingError(f"job {job_key!r} already scheduled")
        ct = self.config.message_ct(message)
        used = self.frame_used(cycle, slot)
        if used + ct > self.config.gd_static_slot:
            raise SchedulingError(
                f"frame (cycle {cycle}, slot {slot}) has {used} MT used; message "
                f"{message.name!r} ({ct} MT) does not fit gd_static_slot="
                f"{self.config.gd_static_slot}"
            )
        st_slot_start(self.config, cycle, slot)  # validates (cycle, slot)
        entry = ScheduledMessage(
            job_key=job_key,
            message=message,
            cycle=cycle,
            slot=slot,
            offset=used,
            ct=ct,
            config=self.config,
        )
        self._frame_used[(cycle, slot)] = used + ct
        self.messages[job_key] = entry
        return entry

    # ------------------------------------------------------------------
    # cache support
    # ------------------------------------------------------------------
    def retime_for(self, config: FlexRayConfig) -> "ScheduleTable":
        """Copy with identical placements, re-bound to *config*.

        Placements are stored in (cycle, slot, offset) coordinates, so
        rebinding derives every absolute message time from *config*'s
        cycle geometry on demand.  Used by the incremental analysis
        engine when a cached schedule serves a configuration that shares
        its cache key (same static segment and cycle geometry, e.g. a
        different FrameID assignment): placements are byte-identical,
        only the configuration view the derived times come from changes.

        NOTE: rebinding across a *different* ``gd_cycle`` yields a table
        whose derived times shift with the new geometry -- that is only
        the schedule the global scheduling algorithm would have produced
        when the placement indices coincide, which the engine guarantees
        by keying its schedule cache on the cycle length whenever ST
        messages exist (placement indices are empirically *not*
        cycle-length-invariant; see ``SchedulePlan`` for what is).
        """
        clone = ScheduleTable.__new__(ScheduleTable)
        clone.config = config
        clone.horizon = self.horizon
        clone.tasks = dict(self.tasks)
        clone.messages = {
            key: replace(entry, config=config)
            for key, entry in self.messages.items()
        }
        clone._node_busy = {n: list(v) for n, v in self._node_busy.items()}
        clone._frame_used = dict(self._frame_used)
        return clone

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def finish_of(self, job_key: str) -> Optional[int]:
        """Completion time of a scheduled job, or None when not scheduled."""
        if job_key in self.tasks:
            return self.tasks[job_key].finish
        if job_key in self.messages:
            return self.messages[job_key].finish
        return None

    def task_entries_on(self, node: str) -> List[ScheduledTask]:
        """All SCS task entries of *node*, by start time."""
        return sorted(
            (e for e in self.tasks.values() if e.task.node == node),
            key=lambda e: e.start,
        )

    def st_message_entries(self) -> List[ScheduledMessage]:
        """All ST message entries, by bus time."""
        return sorted(self.messages.values(), key=lambda e: (e.slot_start, e.offset))

    def makespan(self) -> int:
        """Latest completion time of any scheduled activity (0 when empty)."""
        latest = 0
        for e in self.tasks.values():
            latest = max(latest, e.finish)
        for e in self.messages.values():
            latest = max(latest, e.finish)
        return latest

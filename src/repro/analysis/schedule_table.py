"""Static schedule table.

Holds the off-line computed start times of SCS tasks and the (cycle,
slot, in-frame offset) placement of ST messages -- the artefact the
paper's ``GlobalSchedulingAlgorithm`` (Fig. 2) produces and each node's
CPU consults at run time ("2/2" entries in Fig. 1).

A replayed schedule (:meth:`repro.analysis.scheduler.SchedulePlan.replay`)
is a flat :class:`ScheduleRecord` of ints; its :class:`ScheduleTable`
is a view that builds the :class:`ScheduledTask` /
:class:`ScheduledMessage` entries only when they are first read.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

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


_AFTER_ANY_END = float("inf")


def first_gap(
    intervals: Sequence[Tuple[int, int]], earliest: int, duration: int
) -> Tuple[int, int]:
    """First fit on one node: ``(start, index)``.

    *start* is the earliest time >= *earliest* (and >= 0) at which a gap
    of *duration* MT opens between the sorted, disjoint busy
    *intervals*; inserting ``(start, start + duration)`` at *index*
    keeps them sorted.  The scan begins at a bisect instead of the first
    interval, which returns exactly what a linear scan would: every
    interval before it ends at or before *earliest*.
    """
    if duration <= 0:
        raise SchedulingError(f"duration must be positive, got {duration}")
    t = earliest if earliest > 0 else 0
    i = bisect_right(intervals, (t, _AFTER_ANY_END))
    if i and intervals[i - 1][1] > t:
        i -= 1
    n = len(intervals)
    while i < n:
        s, e = intervals[i]
        if s >= t + duration:
            break
        t = e
        i += 1
    return t, i


class JobTable:
    """The jobs of a schedule plan, in plan order.

    ``keys[i]`` is job *i*'s ``name#instance`` key, ``activities[i]`` its
    task or message and ``base[i]`` its ``instance * period``; ``index``
    maps a key back to *i*.  ``names`` orders the activities the way the
    static response times list them -- task names, then message names,
    each in first-job order -- and ``name_of[i]`` indexes it.
    """

    __slots__ = ("keys", "activities", "base", "index", "names", "name_of")

    def __init__(self, keys: Tuple[str, ...], activities: tuple,
                 base: Tuple[int, ...]):
        self.keys = keys
        self.activities = activities
        self.base = base
        self.index = {key: i for i, key in enumerate(keys)}
        is_task = [isinstance(a, Task) for a in activities]
        self.names = tuple(
            dict.fromkeys(a.name for a, t in zip(activities, is_task) if t)
        ) + tuple(
            dict.fromkeys(a.name for a, t in zip(activities, is_task) if not t)
        )
        slot = {name: i for i, name in enumerate(self.names)}
        self.name_of = tuple(slot[a.name] for a in activities)


#: The flat outcome of one schedule replay, indexed like its
#: :class:`JobTable` (``jobs``).  ``start[i]`` is a task's start time, or
#: a message's offset into its frame; ``cell[i]`` is ``None`` for a task
#: and ``(cycle, slot)`` for a message; ``duration[i]`` the task's wcet
#: or the message's transmission time; ``finish[i]`` the absolute
#: completion time under the configuration the record was replayed for.
#: ``busy`` maps each node hosting SCS jobs to its sorted, disjoint busy
#: intervals, and ``frame_used`` each used ``(cycle, slot)`` to the
#: payload MT packed into it.  Never mutated once built: every view of
#: it shares it.
ScheduleRecord = namedtuple(
    "ScheduleRecord",
    "jobs horizon start cell duration finish busy frame_used",
)


class ScheduleTable:
    """The static schedule: a read-only view of a :class:`ScheduleRecord`.

    Exposes, per node, the busy intervals occupied by SCS tasks (the
    FPS availability pattern) and, per static slot instance, the frame
    payload consumed by packed ST messages.  Every table comes from
    :meth:`from_record`; ``tasks`` and ``messages`` are built on first
    access, and it pickles as its record.
    """

    @classmethod
    def from_record(
        cls, config: FlexRayConfig, record: ScheduleRecord
    ) -> "ScheduleTable":
        """A view of *record* whose message times derive from *config*."""
        table = cls.__new__(cls)
        table.__setstate__({"config": config, "record": record})
        return table

    def __getstate__(self):
        return {"config": self.config, "record": self.record}

    def __setstate__(self, state) -> None:
        self.config = state["config"]
        self.record = record = state["record"]
        self.horizon = record.horizon
        self._tasks = self._messages = None

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Dict[str, ScheduledTask]:
        """SCS task entries by job key, in placement order."""
        if self._tasks is None:
            self._materialise()
        return self._tasks

    @property
    def messages(self) -> Dict[str, ScheduledMessage]:
        """ST message entries by job key, in placement order."""
        if self._messages is None:
            self._materialise()
        return self._messages

    def _materialise(self) -> None:
        record = self.record
        config = self.config
        activities = record.jobs.activities
        start = record.start
        tasks: Dict[str, ScheduledTask] = {}
        messages: Dict[str, ScheduledMessage] = {}
        for i, (key, cell) in enumerate(zip(record.jobs.keys, record.cell)):
            if cell is None:
                tasks[key] = ScheduledTask(key, activities[i], start[i])
            else:
                messages[key] = ScheduledMessage(
                    key, activities[i], cell[0], cell[1], start[i],
                    record.duration[i], config,
                )
        self._tasks = tasks
        self._messages = messages

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def busy_intervals(self, node: str) -> List[Tuple[int, int]]:
        """Sorted, disjoint (start, end) intervals occupied by SCS tasks."""
        return list(self.record.busy.get(node, []))

    def retime_for(self, config: FlexRayConfig) -> "ScheduleTable":
        """Another view of the same record, re-bound to *config*.

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
        return ScheduleTable.from_record(config, self.record)

    def finish_of(self, job_key: str) -> Optional[int]:
        """Completion time of a scheduled job, or None when not scheduled."""
        record = self.record
        i = record.jobs.index.get(job_key)
        if i is None:
            return None
        end = record.start[i] + record.duration[i]
        cell = record.cell[i]
        return end if cell is None else end + st_slot_start(self.config, *cell)

    def task_entries_on(self, node: str) -> List[ScheduledTask]:
        """All SCS task entries of *node*, by start time."""
        return sorted(
            (e for e in self.tasks.values() if e.task.node == node),
            key=lambda e: e.start,
        )

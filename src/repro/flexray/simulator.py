"""Discrete-event simulator for FlexRay-based distributed systems.

Simulates the full system of Section 2 under a concrete bus
configuration: per-node kernels running SCS tasks from the schedule
table and preemptive fixed-priority FPS tasks in the slack, and the bus
executing static slots (from the table) and the FTDMA dynamic segment
(slot/minislot counters, per-node pLatestTx, FrameID arbitration with
local priority queues -- Section 3).

One *application cycle* (the hyper-period) of releases is simulated;
the bus keeps cycling afterwards until all released work drains (or the
safety horizon is hit), so late dynamic traffic is observed rather than
cut off.  The observed response times are exact for the simulated
release alignment and therefore lower bounds of the analytic worst
case -- the property tests assert exactly that relation.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.availability import NodeAvailability, wrap_busy_intervals
from repro.analysis.schedule_table import ScheduleTable
from repro.analysis.scheduler import ScheduleOptions, build_schedule
from repro.core.config import FlexRayConfig
from repro.errors import ModelError, SimulationError
from repro.flexray.controller import ChiQueues
from repro.flexray.events import EventKind, TraceEvent
from repro.flexray.faults import FaultSpec, resolve_faults
from repro.model.message import Message
from repro.model.system import System
from repro.model.task import Task
from repro.model.times import ceil_div


@dataclass(frozen=True)
class SimulationOptions:
    """Simulator tunables."""

    #: Release offset added to every instance of a graph (by graph name);
    #: lets tests explore alignments between task releases and bus cycles.
    graph_offsets: Mapping[str, int] = field(default_factory=dict)
    #: Extra bus cycles simulated beyond the hyper-period to drain traffic.
    drain_factor: int = 64
    #: Collect the full event trace (disable for speed in big sweeps).
    record_trace: bool = True
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    #: Channel fault injection: a :class:`~repro.flexray.faults.FaultModel`
    #: (resolved once per run against the drain horizon) or an already
    #: resolved :class:`~repro.flexray.faults.FaultPlan`.  ``None`` (and
    #: any plan with :attr:`~repro.flexray.faults.FaultPlan.active` ==
    #: False) keeps the simulator on its fault-free code paths,
    #: byte-identical to a run without this option.
    faults: FaultSpec = None


@dataclass(frozen=True)
class SimulationResult:
    """Observed behaviour of one simulation run."""

    observed_wcrt: Dict[str, int]
    response_times: Dict[Tuple[str, int], int]  # (activity, instance) -> R
    unfinished: Tuple[str, ...]
    deadline_misses: Tuple[str, ...]
    trace: Tuple[TraceEvent, ...]
    horizon: int
    #: Per-frame retransmission counts under fault injection:
    #: ``(message, instance) -> number of corrupted attempts``.  Empty
    #: in a fault-free run.  Response times above are *retransmission
    #: aware*: an activity finishes when its (re)transmission finally
    #: arrives, so WCRTs and deadline misses already include the retry
    #: delays counted here.
    retransmissions: Mapping[Tuple[str, int], int] = field(default_factory=dict)

    @property
    def all_finished(self) -> bool:
        """True when every released job completed within the simulation."""
        return not self.unfinished

    @property
    def total_retransmissions(self) -> int:
        """Total corrupted transmission attempts across the run."""
        return sum(self.retransmissions.values())


class _FpsJob:
    """Run-time state of one released FPS task instance."""

    __slots__ = ("task", "instance", "release", "remaining", "started")

    def __init__(self, task: Task, instance: int, release: int):
        self.task = task
        self.instance = instance
        self.release = release
        self.remaining = task.wcet
        self.started = False

    @property
    def key(self) -> Tuple[int, str, int]:
        return (self.task.priority, self.task.name, self.instance)


class _Node:
    """Per-node kernel state: FPS ready queue over the SCS availability."""

    def __init__(self, name: str, availability: NodeAvailability):
        self.name = name
        self.availability = availability
        self.ready: List[Tuple[Tuple[int, str, int], _FpsJob]] = []
        self.last_update = 0
        self.version = 0

    def push(self, job: _FpsJob) -> None:
        heapq.heappush(self.ready, (job.key, job))
        self.version += 1

    def running(self) -> Optional[_FpsJob]:
        return self.ready[0][1] if self.ready else None

    def advance_to(self, now: int) -> None:
        """Account execution of the running FPS job up to *now*."""
        if now <= self.last_update:
            return
        job = self.running()
        if job is not None:
            done = self.availability.available_in(self.last_update, now)
            job.remaining -= min(done, job.remaining)
        self.last_update = now

    def completion_time(self, now: int) -> Optional[int]:
        """Predicted finish of the running job if nothing else happens."""
        job = self.running()
        if job is None:
            return None
        return self.availability.advance(now, job.remaining)


# Event kinds, processed in this order at equal times: releases first so
# arriving work is visible, then bus actions, then CPU bookkeeping.  The
# fault-injection kinds (_EV_ST_TX, _EV_DYN_REQUEUE) slot in between
# without disturbing the relative order of the fault-free kinds, so a
# run without faults pops events in exactly the pre-fault order.
_EV_RELEASE = 0
_EV_SCS_FINISH = 1
_EV_ST_SLOT = 2
#: Drain step of a static slot's retry chain: ordered right after
#: _EV_ST_SLOT so a same-instant scheduled group enqueues before the
#: chain transmits (displaced groups go out in table order).
_EV_ST_TX = 3
_EV_DYN_SLOT = 4
_EV_ARRIVAL = 5
#: A corrupted DYN frame re-enters the CHI at its slot's end: ordered
#: before _EV_DYN_DECIDE so the same-instant slot decision sees it.
_EV_DYN_REQUEUE = 6
_EV_FPS_CHECK = 7
_EV_FPS_READY = 8
#: Second phase of a dynamic-slot event: ordered after every other kind
#: so the slot decision sees all frames queued at the same instant.
_EV_DYN_DECIDE = 9


def simulate(
    system: System,
    config: FlexRayConfig,
    options: SimulationOptions = None,
    table: Optional[ScheduleTable] = None,
) -> SimulationResult:
    """Simulate one application cycle of *system* under *config*.

    ``table`` may supply a pre-built static schedule (e.g. the one an
    :func:`~repro.analysis.holistic.analyse_system` result carries);
    otherwise the scheduler is invoked.
    """
    options = options or SimulationOptions()
    config.validate_for(system)
    for graph_name, offset in options.graph_offsets.items():
        graph = system.application.graph(graph_name)
        if offset and any(t.is_scs for t in graph.tasks):
            raise SimulationError(
                f"graph {graph_name!r} contains SCS tasks; offsetting it would "
                "desynchronise the releases from the static schedule table"
            )
    if table is None:
        table = build_schedule(system, config, options.schedule)
    engine = _Engine(system, config, options, table)
    return engine.run()


class _Engine:
    def __init__(self, system, config, options, table):
        self.system = system
        self.config = config
        self.options = options
        self.table = table
        self.app = system.application
        self.horizon = self.app.hyperperiod
        self.max_time = self.horizon + options.drain_factor * config.gd_cycle
        self.trace: List[TraceEvent] = []
        self.events: List[tuple] = []
        self._seq = 0

        self.nodes: Dict[str, _Node] = {
            name: _Node(
                name,
                NodeAvailability(
                    wrap_busy_intervals(table.busy_intervals(name), self.horizon),
                    self.horizon,
                ),
            )
            for name in system.nodes
        }
        #

        # Precedence bookkeeping: remaining predecessor count per job.
        self.pending: Dict[Tuple[str, int], int] = {}
        self.finish_times: Dict[Tuple[str, int], int] = {}
        self.release_base: Dict[Tuple[str, int], int] = {}
        self.chi = ChiQueues(config, system)
        #: Where the current cycle's dynamic-segment walk stopped because
        #: nothing was queued: ``(cycle, fid, minislot, time)``; a later
        #: queueing inside the segment resumes the walk from here.
        self._dyn_idle = None

        # Channel fault state.  The model resolves once per run against
        # the drain horizon, so corruption decisions are reproducible at
        # a fixed seed regardless of event interleavings.
        self.fault_plan = resolve_faults(
            options.faults, self.max_time, config.gd_cycle
        )
        self.faults_on = self.fault_plan.active
        #: Per-static-slot retry chains: ``slot -> deque of
        #: ``[entries, attempt]`` groups awaiting (re)transmission.
        self._st_pending: Dict[int, deque] = {}
        #: DYN transmission attempts so far per (message, instance).
        self._dyn_attempts: Dict[Tuple[str, int], int] = {}
        #: Corrupted attempts per (activity, instance).
        self.retransmissions: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        self._seed_events()
        while self.events:
            time, order, _seq, kind, payload = heapq.heappop(self.events)
            if time > self.max_time:
                break
            handler = {
                _EV_RELEASE: self._on_release,
                _EV_SCS_FINISH: self._on_scs_finish,
                _EV_ST_SLOT: self._on_st_slot,
                _EV_ST_TX: self._on_st_tx,
                _EV_DYN_SLOT: self._on_dyn_slot,
                _EV_ARRIVAL: self._on_arrival,
                _EV_DYN_REQUEUE: self._on_dyn_requeue,
                _EV_FPS_CHECK: self._on_fps_check,
                _EV_FPS_READY: self._on_fps_ready,
                _EV_DYN_DECIDE: self._on_dyn_decide,
            }[kind]
            handler(time, payload)
        return self._collect()

    def _push(self, time: int, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self.events, (time, kind, self._seq, kind, payload))

    def _record(self, time, kind, activity="", instance=0, node=None, detail=""):
        if self.options.record_trace:
            self.trace.append(
                TraceEvent(
                    time=time,
                    kind=kind,
                    activity=activity,
                    instance=instance,
                    node=node,
                    detail=detail,
                )
            )

    # ------------------------------------------------------------------
    # seeding
    # ------------------------------------------------------------------
    def _seed_events(self) -> None:
        # Graph instance releases over one hyper-period.
        for g in self.app.graphs:
            offset = self.options.graph_offsets.get(g.name, 0)
            for k in range(self.horizon // g.period):
                self._push(k * g.period + offset, _EV_RELEASE, (g, k))
        # SCS task completions straight from the schedule table.
        for entry in self.table.tasks.values():
            name, instance = entry.job_key.rsplit("#", 1)
            self._push(entry.finish, _EV_SCS_FINISH, (entry, int(instance)))
            self._record(
                entry.start,
                EventKind.TASK_START,
                name,
                int(instance),
                entry.task.node,
                "SCS",
            )
        # Static frames from the schedule table.
        by_slot: Dict[Tuple[int, int], list] = {}
        for entry in self.table.messages.values():
            by_slot.setdefault((entry.cycle, entry.slot), []).append(entry)
        for (cycle, slot), entries in by_slot.items():
            self._push(entries[0].slot_start, _EV_ST_SLOT, tuple(entries))
        # Dynamic segment walk of every cycle until the drain horizon.
        cycle = 0
        while cycle * self.config.gd_cycle <= self.max_time:
            start = cycle * self.config.gd_cycle + self.config.st_bus
            if self.config.n_minislots > 0:
                self._push(start, _EV_DYN_SLOT, (cycle, 1, 1))
            cycle += 1

    # ------------------------------------------------------------------
    # graph / CPU events
    # ------------------------------------------------------------------
    def _on_release(self, time: int, payload) -> None:
        graph, instance = payload
        self._record(time, EventKind.RELEASE, graph.name, instance)
        for name in graph.topological_order():
            job = (name, instance)
            self.release_base[job] = time
            self.pending[job] = len(graph.predecessors(name))
        for task in graph.tasks:
            if task.is_fps and self.pending[(task.name, instance)] == 0:
                if task.release > 0:
                    self._push(
                        time + task.release, _EV_FPS_READY, (task, instance)
                    )
                else:
                    self._ready_fps(task, instance, time)

    def _ready_fps(self, task: Task, instance: int, time: int) -> None:
        node = self.nodes[task.node]
        node.advance_to(time)
        node.push(_FpsJob(task, instance, time))
        self._schedule_fps_check(node, time)

    def _schedule_fps_check(self, node: _Node, now: int) -> None:
        completion = node.completion_time(now)
        if completion is not None:
            self._push(completion, _EV_FPS_CHECK, (node.name, node.version))

    def _on_fps_ready(self, time: int, payload) -> None:
        task, instance = payload
        self._ready_fps(task, instance, time)

    def _on_fps_check(self, time: int, payload) -> None:
        name, version = payload
        node = self.nodes[name]
        if version != node.version:
            return  # stale prediction; a newer check is queued
        node.advance_to(time)
        job = node.running()
        if job is None:
            return
        if job.remaining > 0:
            self._schedule_fps_check(node, time)
            return
        heapq.heappop(node.ready)
        node.version += 1
        self._record(
            time, EventKind.TASK_FINISH, job.task.name, job.instance, name, "FPS"
        )
        self._activity_finished(job.task.name, job.instance, time)
        self._schedule_fps_check(node, time)

    def _on_scs_finish(self, time: int, payload) -> None:
        entry, instance = payload
        if self.faults_on and self.pending.get((entry.task.name, instance), 0) > 0:
            # Channel faults delayed an input of this TT job past its
            # table slot: the job slips whole bus cycles until its
            # inputs are in.  (The slipped job's CPU demand is not
            # re-modelled -- the simulation stays a lower bound of the
            # analysis, which the fault-hypothesis tests rely on.)
            self._push(time + self.config.gd_cycle, _EV_SCS_FINISH, payload)
            return
        self._record(
            time,
            EventKind.TASK_FINISH,
            entry.task.name,
            instance,
            entry.task.node,
            "SCS",
        )
        self._activity_finished(entry.task.name, instance, time)

    def _activity_finished(self, name: str, instance: int, time: int) -> None:
        job = (name, instance)
        if job in self.finish_times:
            raise SimulationError(f"activity {name}#{instance} finished twice")
        self.finish_times[job] = time
        graph = self.app.graph_of(name)
        for succ in graph.successors(name):
            sjob = (succ, instance)
            self.pending[sjob] -= 1
            if self.pending[sjob] > 0:
                continue
            self._dispatch_ready(graph, succ, instance, time)

    def _dispatch_ready(self, graph, name: str, instance: int, time: int) -> None:
        """All predecessors of (name, instance) completed at *time*."""
        try:
            task = graph.task(name)
        except ModelError:
            task = None
        if task is not None:
            if task.is_fps:
                self._ready_fps(task, instance, time)
            # SCS successor: runs per schedule table; verify consistency.
            elif self.table.tasks.get(f"{name}#{instance}") is not None:
                entry = self.table.tasks[f"{name}#{instance}"]
                if entry.start < time and not self.faults_on:
                    raise SimulationError(
                        f"SCS task {name}#{instance} scheduled at {entry.start} "
                        f"but its inputs arrive at {time}"
                    )
                # Under fault injection a late input is legal: the
                # job's (deferred) _EV_SCS_FINISH slips cycle by cycle
                # until the inputs are in (see _on_scs_finish).
            return
        message = graph.message(name)
        if message.is_dynamic:
            self._queue_dyn(message, instance, time)
        # ST messages follow the schedule table; consistency is checked
        # when their slot transmits.

    # ------------------------------------------------------------------
    # bus events
    # ------------------------------------------------------------------
    def _on_st_slot(self, time: int, entries) -> None:
        slot = entries[0].slot
        pending = self._st_pending.setdefault(slot, deque())
        pending.append([entries, 0])
        if len(pending) == 1:
            self._transmit_st(time, slot)
        # else: this slot already has a retry chain in flight (an
        # earlier group was corrupted or displaced); the chain's queued
        # _EV_ST_TX drains this group in a later cycle, in table order.

    def _on_st_tx(self, time: int, slot: int) -> None:
        if self._st_pending.get(slot):
            self._transmit_st(time, slot)

    def _transmit_st(self, time: int, slot: int) -> None:
        """(Re)transmit the head group of *slot*'s retry chain at *time*."""
        pending = self._st_pending[slot]
        entries, attempt = pending[0]
        delay = time - entries[0].slot_start
        jobs = []
        for entry in entries:
            name, instance = entry.job_key.rsplit("#", 1)
            instance = int(instance)
            sender = self.app.graph_of(name).task(entry.message.sender)
            sender_finish = self.finish_times.get((sender.name, instance))
            if sender_finish is None or sender_finish > time:
                if self.faults_on:
                    # A corruption upstream slipped the sender past its
                    # table slot: the frame waits for next cycle's slot.
                    self._push(time + self.config.gd_cycle, _EV_ST_TX, slot)
                    return
                raise SimulationError(
                    f"ST message {name}#{instance} is not ready at its slot "
                    f"(cycle {entry.cycle}, slot {entry.slot}, t={time})"
                )
            jobs.append((entry, name, instance))
        corrupted = self.faults_on and self.fault_plan.corrupts(
            jobs[0][1], jobs[0][2], attempt, time
        )
        for entry, name, instance in jobs:
            retry = f" retry {attempt}" if attempt else ""
            self._record(
                time, EventKind.ST_FRAME, name, instance, None,
                f"cycle {entry.cycle} slot {entry.slot}{retry}",
            )
        if corrupted:
            # Corruption is detected at the end of the slot; the whole
            # frame (all messages packed into this slot) retries in the
            # slot's next bus-cycle instance.
            slot_end = time + self.config.gd_static_slot
            pending[0][1] = attempt + 1
            for entry, name, instance in jobs:
                self._bump_retransmission(name, instance)
                self._record(
                    slot_end, EventKind.FRAME_CORRUPTED, name, instance, None,
                    f"ST slot {entry.slot} attempt {attempt}",
                )
            self._push(time + self.config.gd_cycle, _EV_ST_TX, slot)
            return
        pending.popleft()
        for entry, name, instance in jobs:
            self._push(entry.finish + delay, _EV_ARRIVAL, (name, instance))
        if pending:
            self._push(time + self.config.gd_cycle, _EV_ST_TX, slot)

    def _bump_retransmission(self, name: str, instance: int) -> None:
        key = (name, instance)
        self.retransmissions[key] = self.retransmissions.get(key, 0) + 1

    def _queue_dyn(self, message: Message, instance: int, time: int) -> None:
        node = self.chi.queue(message, instance, time)
        self._record(time, EventKind.MSG_QUEUED, message.name, instance, node)
        if self._dyn_idle is not None:
            # The current segment's walk idled out before this frame was
            # queued; resume it at the first slot boundary the frame can
            # make (inclusive: queued exactly at a boundary counts).
            cycle, fid, minislot, idle_time = self._dyn_idle
            self._dyn_idle = None
            segment_end = cycle * self.config.gd_cycle + self.config.gd_cycle
            if time < segment_end:
                ms_len = self.config.gd_minislot
                skipped = -(-(time - idle_time) // ms_len)  # ceil
                self._push(
                    idle_time + skipped * ms_len,
                    _EV_DYN_SLOT,
                    (cycle, fid + skipped, minislot + skipped),
                )

    def _on_dyn_slot(self, time: int, payload) -> None:
        # Two-phase slot decision: the controller reads its buffers at
        # the *start* of the slot, and a frame queued exactly at that
        # instant counts (``pop_for_slot`` filters ``queued <= start``).
        # Re-enqueueing the decision behind every same-instant event
        # (task completions, arrivals) makes the event order match that
        # semantic, so the simulation never exceeds the analysis, which
        # assumes a frame ready at its slot's earliest start makes the
        # cycle.
        self._push(time, _EV_DYN_DECIDE, payload)

    def _on_dyn_decide(self, time: int, payload) -> None:
        cycle, fid, minislot = payload
        segment_end = cycle * self.config.gd_cycle + self.config.gd_cycle
        if time >= segment_end or minislot > self.config.n_minislots:
            return
        if fid > self.chi.max_frame_id:
            return  # no message uses this or any later slot: segment over
        if self.chi.pending == 0:
            # Nothing queued anywhere: the walk idles, but a frame queued
            # later in this segment must still meet its slot -- remember
            # where the walk stopped so ``_queue_dyn`` can resume it.
            self._dyn_idle = (cycle, fid, minislot, time)
            return
        frame = self.chi.pop_for_slot(fid, time, minislot)
        if frame is None:
            # Empty dynamic slot: one minislot elapses.
            self._push(
                time + self.config.gd_minislot,
                _EV_DYN_SLOT,
                (cycle, fid + 1, minislot + 1),
            )
            return
        message, instance = frame
        ct = self.config.message_ct(message)
        slots_used = ceil_div(ct, self.config.gd_minislot)
        attempt = self._dyn_attempts.get((message.name, instance), 0)
        corrupted = self.faults_on and self.fault_plan.corrupts(
            message.name, instance, attempt, time
        )
        retry = f" retry {attempt}" if attempt else ""
        self._record(
            time,
            EventKind.DYN_TX_START,
            message.name,
            instance,
            self.system.sender_node(message),
            f"cycle {cycle} DYN slot {fid}{retry}",
        )
        slot_end = time + slots_used * self.config.gd_minislot
        if corrupted:
            # The frame still occupied its dynamic slot; corruption is
            # detected at slot end, where the frame re-enters the CHI
            # priority queue and re-arbitrates for a later cycle.
            self._dyn_attempts[(message.name, instance)] = attempt + 1
            self._bump_retransmission(message.name, instance)
            self._push(slot_end, _EV_DYN_REQUEUE, (message, instance, fid))
        else:
            self._push(time + ct, _EV_ARRIVAL, (message.name, instance))
        self._push(
            slot_end,
            _EV_DYN_SLOT,
            (cycle, fid + 1, minislot + slots_used),
        )

    def _on_dyn_requeue(self, time: int, payload) -> None:
        message, instance, fid = payload
        self._record(
            time,
            EventKind.FRAME_CORRUPTED,
            message.name,
            instance,
            self.system.sender_node(message),
            f"DYN slot {fid}",
        )
        self._queue_dyn(message, instance, time)

    def _on_arrival(self, time: int, payload) -> None:
        name, instance = payload
        self._record(time, EventKind.MSG_ARRIVAL, name, instance)
        self._activity_finished(name, instance, time)

    # ------------------------------------------------------------------
    def _collect(self) -> SimulationResult:
        response: Dict[Tuple[str, int], int] = {}
        observed: Dict[str, int] = {}
        misses: List[str] = []
        unfinished: List[str] = []
        for job, base in self.release_base.items():
            name, instance = job
            finish = self.finish_times.get(job)
            if finish is None:
                unfinished.append(f"{name}#{instance}")
                continue
            r = finish - base
            response[job] = r
            observed[name] = max(observed.get(name, 0), r)
            if r > self.app.deadline_of(name):
                misses.append(f"{name}#{instance}")
        return SimulationResult(
            observed_wcrt=observed,
            response_times=response,
            unfinished=tuple(sorted(unfinished)),
            deadline_misses=tuple(sorted(misses)),
            trace=tuple(self.trace),
            horizon=self.horizon,
            retransmissions=dict(self.retransmissions),
        )

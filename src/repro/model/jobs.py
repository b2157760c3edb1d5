"""Hyper-period job expansion.

The static scheduler places *job instances*: if graph G has period T and
the application hyper-period is H, every SCS task / ST message of G
occurs H/T times, instance k released at k*T (+ the task's own release
offset) with absolute deadline k*T + D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from repro.model.application import Application
from repro.model.graph import TaskGraph
from repro.model.message import Message
from repro.model.task import Task


@dataclass(frozen=True)
class Job:
    """One periodic instance of a task or message.

    Attributes
    ----------
    activity:
        The underlying :class:`Task` or :class:`Message`.
    graph:
        The task graph the activity belongs to.
    instance:
        Instance index k within the hyper-period (0-based).
    release:
        Absolute earliest start time of this instance (macroticks from the
        start of the hyper-period).
    abs_deadline:
        Absolute deadline of this instance.
    """

    activity: Union[Task, Message]
    graph: TaskGraph
    instance: int
    release: int
    abs_deadline: int

    @property
    def name(self) -> str:
        """Name of the underlying activity."""
        return self.activity.name

    @property
    def key(self) -> str:
        """Unique job identifier ``name#instance``."""
        return f"{self.activity.name}#{self.instance}"

    @property
    def is_task(self) -> bool:
        """True when the job is a task instance (else a message instance)."""
        return isinstance(self.activity, Task)


def expand_jobs(
    application: Application,
    scs_only: bool = True,
    horizon: int = None,
) -> List[Job]:
    """All job instances over *horizon* (default: the hyper-period).

    With ``scs_only`` (the default) only SCS tasks and ST messages are
    expanded -- exactly the activities placed in the static schedule
    table.  FPS tasks and DYN messages are analysed with response-time
    analysis instead and never appear in the table.
    """
    if horizon is None:
        horizon = application.hyperperiod
    jobs: List[Job] = []
    for g in application.graphs:
        count = max(1, -(-horizon // g.period))  # ceil; >=1 even for tiny horizons
        for t in g.tasks:
            if scs_only and not t.is_scs:
                continue
            jobs.extend(_instances(t, g, count, t.release, t.deadline))
        for m in g.messages:
            if scs_only and not m.is_static:
                continue
            jobs.extend(_instances(m, g, count, 0, m.deadline))
    return jobs


def _instances(activity, graph: TaskGraph, count: int, release_offset: int, deadline):
    eff_deadline = deadline if deadline is not None else graph.deadline
    out = []
    for k in range(count):
        base = k * graph.period
        out.append(
            Job(
                activity=activity,
                graph=graph,
                instance=k,
                release=base + release_offset,
                abs_deadline=base + eff_deadline,
            )
        )
    return out

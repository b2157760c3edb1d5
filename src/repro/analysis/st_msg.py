"""Response times of statically scheduled activities.

SCS tasks and ST messages have deterministic completion times fixed by
the schedule table; their worst-case response time is simply the largest
``finish - period_start`` over the job instances of the hyper-period.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.schedule_table import ScheduleTable
from repro.model.application import Application


def static_response_times(
    application: Application, table: ScheduleTable, period_of=None
) -> Dict[str, int]:
    """WCRT per SCS task / ST message name, relative to the graph release.

    ``period_of`` optionally supplies a precomputed period lookup (the
    incremental analysis engine passes its per-system period table to
    avoid repeated graph searches); defaults to the application's.
    """
    if period_of is None:
        period_of = application.period_of
    wcrt: Dict[str, int] = {}
    for entry in table.tasks.values():
        name, instance = entry.job_key.rsplit("#", 1)
        base = int(instance) * period_of(name)
        wcrt[name] = max(wcrt.get(name, 0), entry.finish - base)
    for entry in table.messages.values():
        name, instance = entry.job_key.rsplit("#", 1)
        base = int(instance) * period_of(name)
        wcrt[name] = max(wcrt.get(name, 0), entry.finish - base)
    return wcrt

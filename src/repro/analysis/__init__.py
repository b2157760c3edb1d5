"""Timing analysis: static scheduling, FPS/DYN response times, holistic loop.

Public entry points
-------------------
:func:`analyse_system`
    One-off scheduling + holistic analysis of a (system, configuration)
    pair; builds a transient :class:`AnalysisContext` unless one is
    passed in.
:class:`AnalysisContext`
    The incremental analysis engine: construct once per system, call
    ``analyse`` per candidate configuration.  Results are bit-identical
    to :func:`analyse_system` with no context -- the context only makes
    repeated analyses (DYN-length sweeps, optimiser neighbourhoods)
    incremental.  See ``docs/ARCHITECTURE.md`` for its cache layers.
:class:`AnalysisOptions`
    Analysis tunables; the ``backend`` field selects the evaluation
    backend (``"python"`` reference, ``"native"`` compiled kernels,
    bit-identical to it).  The fully cold reference trajectory the
    certified fast path is tested against is
    :meth:`AnalysisContext.analyse_cold`.

The busy-window kernels (:func:`fps_task_busy_window`,
:func:`dyn_message_busy_window`), the static scheduler
(:func:`build_schedule`, :class:`SchedulePlan`) and the availability
primitive (:class:`NodeAvailability`) are exported for direct use in tests,
benchmarks and tooling; the math behind them is derived in
``docs/ANALYSIS.md``.
"""

from repro.analysis.availability import (
    InstantTables,
    NodeAvailability,
    merge_intervals,
    wrap_busy_intervals,
)
from repro.analysis.context import AnalysisContext, ancestor_sets
from repro.analysis.dyn import (
    DynInterference,
    dyn_message_busy_window,
    interference_sets,
    sigma,
)
from repro.analysis.fill import fill_bound, max_filled_cycles
from repro.analysis.fps import (
    WcrtResult,
    fps_task_busy_window,
    hp_tasks,
    interference_count,
)
from repro.analysis.holistic import (
    AnalysisOptions,
    AnalysisResult,
    BACKEND_MODES,
    SweepRow,
    analyse_system,
    analysis_cap,
)
from repro.analysis.priorities import critical_path_priorities, message_costs
from repro.analysis.schedule_table import (
    ScheduledMessage,
    ScheduledTask,
    ScheduleTable,
)
from repro.analysis.scheduler import SchedulePlan, ScheduleOptions, build_schedule
from repro.analysis.sensitivity import (
    BusLoad,
    SlackEntry,
    bottlenecks,
    bus_load,
    slack_report,
)
from repro.analysis.st_msg import static_response_times

__all__ = [
    "AnalysisContext",
    "AnalysisOptions",
    "AnalysisResult",
    "ancestor_sets",
    "BACKEND_MODES",
    "BusLoad",
    "SlackEntry",
    "SweepRow",
    "DynInterference",
    "InstantTables",
    "NodeAvailability",
    "SchedulePlan",
    "ScheduleOptions",
    "ScheduleTable",
    "ScheduledMessage",
    "ScheduledTask",
    "WcrtResult",
    "analyse_system",
    "analysis_cap",
    "bottlenecks",
    "build_schedule",
    "bus_load",
    "critical_path_priorities",
    "dyn_message_busy_window",
    "fill_bound",
    "fps_task_busy_window",
    "hp_tasks",
    "interference_count",
    "interference_sets",
    "max_filled_cycles",
    "merge_intervals",
    "message_costs",
    "sigma",
    "slack_report",
    "static_response_times",
    "wrap_busy_intervals",
]

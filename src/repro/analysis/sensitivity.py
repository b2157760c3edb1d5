"""Post-analysis reporting: slack, bottlenecks and bus load.

Helpers that turn an :class:`~repro.analysis.holistic.AnalysisResult`
into the quantities a system designer acts on: which activities are
closest to their deadlines, and how loaded each bus segment is under a
given configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.holistic import AnalysisResult
from repro.core.config import FlexRayConfig
from repro.errors import AnalysisError
from repro.model.system import System


@dataclass(frozen=True)
class SlackEntry:
    """Deadline slack of one activity under an analysed configuration."""

    name: str
    wcrt: int
    deadline: int

    @property
    def slack(self) -> int:
        """Deadline minus worst-case response (negative = miss)."""
        return self.deadline - self.wcrt

    @property
    def usage(self) -> float:
        """Fraction of the deadline consumed by the response time."""
        return self.wcrt / self.deadline


def slack_report(system: System, result: AnalysisResult) -> List[SlackEntry]:
    """Every activity's slack, tightest first."""
    if not result.feasible:
        raise AnalysisError(
            f"cannot build a slack report for an infeasible result: "
            f"{result.failure}"
        )
    app = system.application
    entries = [
        SlackEntry(name=name, wcrt=result.wcrt[name],
                   deadline=app.deadline_of(name))
        for g in app.graphs
        for name in g.topological_order()
    ]
    entries.sort(key=lambda e: (e.slack, e.name))
    return entries


def bottlenecks(
    system: System, result: AnalysisResult, count: int = 5
) -> List[SlackEntry]:
    """The *count* activities with the least slack."""
    return slack_report(system, result)[: max(0, count)]


@dataclass(frozen=True)
class BusLoad:
    """Long-run utilisation of the bus segments under a configuration."""

    st_demand: float  # ST payload demand / ST segment capacity
    dyn_demand: float  # DYN payload demand / DYN segment capacity
    cycle_share_st: float  # fraction of the cycle spent in the ST segment


def bus_load(system: System, config: FlexRayConfig) -> BusLoad:
    """Average per-cycle demand of each segment.

    Demand counts every message instance over the hyper-period against
    the segment capacity offered in the same span; values above 1.0 mean
    the configuration cannot carry the traffic in the long run.
    """
    app = system.application
    hyper = app.hyperperiod
    cycles = hyper / config.gd_cycle
    st_demand = sum(
        config.message_ct(m) * (hyper // app.period_of(m.name))
        for m in app.st_messages()
    )
    dyn_demand = sum(
        config.minislots_needed(m)
        * config.gd_minislot
        * (hyper // app.period_of(m.name))
        for m in app.dyn_messages()
    )
    st_capacity = config.st_bus * cycles
    dyn_capacity = config.dyn_bus * cycles
    return BusLoad(
        st_demand=st_demand / st_capacity if st_capacity else 0.0,
        dyn_demand=dyn_demand / dyn_capacity if dyn_capacity else 0.0,
        cycle_share_st=config.st_bus / config.gd_cycle,
    )

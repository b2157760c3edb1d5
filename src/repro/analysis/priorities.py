"""List-scheduling priority: the modified critical-path metric.

The paper (Fig. 2) selects among ready SCS tasks / ST messages with "a
modified critical path metric" from [12]: an activity is the more urgent
the longer the remaining path from it to the graph's sink, with message
costs taken at their bus transmission times.  We additionally subtract
the path length from the graph deadline so activities of tight graphs
win ties against activities of slack graphs.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import FlexRayConfig
from repro.model.application import Application


def message_costs(application: Application, config: FlexRayConfig) -> Dict[str, int]:
    """Bus transmission time C_m per message name under *config*."""
    return {m.name: config.message_ct(m) for m in application.messages()}


def critical_path_priorities(
    application: Application, config: FlexRayConfig
) -> Dict[str, int]:
    """Priority value per activity name; **larger = schedule earlier**.

    The value is ``longest_path_from(activity) - slack(graph)`` where
    ``slack(graph) = deadline - total critical path``; subtracting a
    per-graph constant keeps the relative order inside each graph (pure
    critical path) while ranking tight graphs above slack ones.
    """
    costs = message_costs(application, config)
    prio: Dict[str, int] = {}
    for g in application.graphs:
        cp = max(g.longest_path_from(s, costs) for s in g.sources())
        slack = g.deadline - cp
        for name in g.topological_order():
            prio[name] = g.longest_path_from(name, costs) - slack
    return prio

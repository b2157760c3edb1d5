"""Schedulability-degree cost function (Eq. (5) of the paper).

    Cost = f1 = sum_i max(R_i - D_i, 0)   if f1 > 0   (some deadline missed)
         = f2 = sum_i (R_i - D_i)          if f1 = 0   (all deadlines met)

The function is strictly positive when at least one activity misses its
deadline and negative (more negative = more slack) when the system is
schedulable, which lets the optimisers keep improving a schedulable
solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.errors import AnalysisError
from repro.model.application import Application


@dataclass(frozen=True)
class CostBreakdown:
    """Cost value plus diagnostic detail."""

    value: float
    schedulable: bool
    misses: int
    worst_violation: int
    total_slack: int

    def __float__(self) -> float:  # pragma: no cover - convenience
        return float(self.value)


def cost_order(application: Application) -> List[Tuple[str, int]]:
    """``(activity, deadline)`` in :func:`cost_function`'s term order,
    resolved once for callers that evaluate Eq. (5) many times."""
    return [
        (name, application.deadline_of(name))
        for g in application.graphs
        for name in g.topological_order()
    ]


def cost_function(
    application: Application, wcrt: Mapping[str, int]
) -> CostBreakdown:
    """Evaluate Eq. (5) over every activity of *application*.

    ``wcrt`` must contain a worst-case response time for every task and
    message; a missing entry raises :class:`AnalysisError` rather than
    silently treating the activity as schedulable.
    """
    f1 = 0
    f2 = 0
    misses = 0
    worst = 0
    for g in application.graphs:
        for name in g.topological_order():
            if name not in wcrt:
                raise AnalysisError(f"no response time for activity {name!r}")
            r = wcrt[name]
            d = application.deadline_of(name)
            diff = r - d
            f2 += diff
            if diff > 0:
                f1 += diff
                misses += 1
                worst = max(worst, diff)
    if f1 > 0:
        return CostBreakdown(
            value=float(f1),
            schedulable=False,
            misses=misses,
            worst_violation=worst,
            total_slack=-f2,
        )
    return CostBreakdown(
        value=float(f2),
        schedulable=True,
        misses=0,
        worst_violation=0,
        total_slack=-f2,
    )


def cost_over(
    order: Sequence[Tuple[str, int]], wcrt: Mapping[str, int]
) -> CostBreakdown:
    """:func:`cost_function` over a resolved :func:`cost_order`.

    Equal to ``cost_function(application, wcrt)`` for
    ``order = cost_order(application)``, including the
    :class:`AnalysisError` naming the first activity without a response
    time; callers that cost many results per system resolve the order
    once instead of looking every deadline up again.
    """
    f1 = 0
    f2 = 0
    misses = 0
    worst = 0
    try:
        for name, deadline in order:
            diff = wcrt[name] - deadline
            f2 += diff
            if diff > 0:
                f1 += diff
                misses += 1
                if diff > worst:
                    worst = diff
    except KeyError as exc:
        raise AnalysisError(
            f"no response time for activity {exc.args[0]!r}"
        ) from None
    if f1 > 0:
        return CostBreakdown(
            value=float(f1),
            schedulable=False,
            misses=misses,
            worst_violation=worst,
            total_slack=-f2,
        )
    return CostBreakdown(
        value=float(f2),
        schedulable=True,
        misses=0,
        worst_violation=0,
        total_slack=-f2,
    )


def cost_values(
    deadlines: Sequence[int], columns: Sequence[Sequence[int]]
) -> List[float]:
    """Eq. (5)'s value for many candidates at once.

    ``columns[i][k]`` is the response time of the *i*-th activity of
    :func:`cost_order` (deadline ``deadlines[i]``) under candidate *k*;
    each value equals ``cost_function(...).value`` for that candidate's
    response times.  Response times and deadlines are integers, so the
    sums are exact in any order: f2 is one column sum per candidate, and
    only activities that miss their deadline somewhere add to f1.
    """
    total_deadline = sum(deadlines)
    f2 = [total - total_deadline for total in map(sum, zip(*columns))]
    f1 = [0] * len(f2)
    for d, column in zip(deadlines, columns):
        if max(column) > d:
            f1 = [s + r - d if r > d else s for s, r in zip(f1, column)]
    return [float(a) if a > 0 else float(b) for a, b in zip(f1, f2)]

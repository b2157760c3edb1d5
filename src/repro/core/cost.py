"""Schedulability-degree cost function (Eq. (5) of the paper).

    Cost = f1 = sum_i max(R_i - D_i, 0)   if f1 > 0   (some deadline missed)
         = f2 = sum_i (R_i - D_i)          if f1 = 0   (all deadlines met)

The function is strictly positive when at least one activity misses its
deadline and negative (more negative = more slack) when the system is
schedulable, which lets the optimisers keep improving a schedulable
solution.  :func:`cost_values` scores the curve-fit estimates f1 first:
rows that never miss are not rounded for it, and f2 is summed only at
candidates where f1 is 0.
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
    return cost_over(cost_order(application), wcrt)


def cost_over(
    order: Sequence[Tuple[str, int]], wcrt: Mapping[str, int]
) -> CostBreakdown:
    """:func:`cost_function` over a resolved :func:`cost_order`,
    raising the :class:`AnalysisError` that names the first activity
    without a response time; callers that cost many results per system
    resolve the order once instead of looking every deadline up again.
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
    deadlines: Sequence[int], rows: Sequence[List[float]]
) -> List[float]:
    """Eq. (5)'s value at many candidates at once, from float estimates.

    ``rows[i][k]`` estimates the response time of the *i*-th activity of
    :func:`cost_order` (deadline ``deadlines[i]``) at candidate *k*; each
    value equals ``cost_function(...).value`` over the candidate's
    :func:`_clamped` response times.  Only what Eq. (5) reads is
    computed: f1 first, then f2 only when f1 is 0 at some candidate, and
    only there.  Rounding and both clamps are monotone, so a row whose
    largest value rounds to at most its deadline adds nothing to f1 and
    is not rounded for it, and the low clamp adds no miss against a
    deadline >= 0.  A row whose float sum is not finite, or whose
    deadline is negative, goes through :func:`_clamped` whole, in row
    order, so an inf or a NaN raises from the first row holding one, as
    rounding every row first would.
    """
    f1 = [0] * len(rows[0]) if rows else []
    for d, values in zip(deadlines, rows):
        s = sum(values)
        if s - s != 0.0 or d < 0:
            rounded = _clamped(values)
        else:
            top = float.__round__(max(values))
            if top <= d:
                continue
            rounded = map(float.__round__, values)
            if top > 10**12:
                rounded = [r if r < 10**12 else 10**12 for r in rounded]
        f1 = [a + r - d if r > d else a for a, r in zip(f1, rounded)]
    if all(f1):
        return list(map(float, f1))
    total_deadline = sum(deadlines)
    columns = zip(*map(_clamped, rows))
    return [
        float(a) if a else float(sum(column) - total_deadline)
        for a, column in zip(f1, columns)
    ]


def _clamped(values: List[float]) -> List[int]:
    """Interpolated response times, rounded and clamped.

    Clamp: a high-degree Newton polynomial can oscillate wildly between
    nodes; negative or astronomic response times are noise.  Each bound
    of ``min(10**12, max(0, r))`` is applied only to rows that cross it.
    The values are always floats (``NewtonCurves`` builds them from
    ``float(y)``), so the unbound ``float.__round__`` gives ``round``'s
    ints and its errors on inf/NaN without the builtin's dispatch.
    """
    rounded = list(map(float.__round__, values))
    if min(rounded) < 0:
        rounded = [r if r > 0 else 0 for r in rounded]
    if max(rounded) > 10**12:
        rounded = [r if r < 10**12 else 10**12 for r in rounded]
    return rounded

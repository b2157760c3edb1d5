"""Worst-case response times of FPS tasks.

FPS tasks are preempted by higher-priority FPS tasks of their node and
can only run in the slack left by the static (SCS) schedule.  We use the
standard hierarchical-scheduling formulation of the paper's ref. [13]:
the busy-window recurrence

    w = C_i + sum_{j in hp(i)} ceil((w + J_j) / T_j) * C_j

is solved in *available* time through the node's
:class:`~repro.analysis.availability.NodeAvailability`, and maximised
over the critical instants where an SCS busy interval begins.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.analysis.availability import NodeAvailability, wrap_busy_intervals
from repro.model.system import System
from repro.model.task import Task
from repro.model.times import ceil_div


@dataclass(frozen=True)
class WcrtResult:
    """Outcome of one response-time computation.

    ``value`` is the worst-case response time in macroticks; when
    ``converged`` is False the recurrence was truncated at the analysis
    cap and ``value`` is the cap -- a certain deadline miss, usable by
    the cost function as a (finite) degree of unschedulability.
    """

    value: int
    converged: bool


#: Iteration limit of each busy-window fix-point.
MAX_FIXPOINT_ITERATIONS = 512


def hp_tasks(task: Task, tasks_on_node: Sequence[Task]) -> List[Task]:
    """FPS tasks of the node that can delay *task*.

    Strictly higher priority (smaller value), plus equal-priority peers
    (ties are modelled pessimistically in both directions).
    """
    return [
        t
        for t in tasks_on_node
        if t.is_fps
        and t.name != task.name
        and (t.priority, t.name) <= (task.priority, task.name)
    ]


def interference_count(
    window: int,
    period: int,
    jitter: int,
    is_ancestor: bool,
    own_jitter: int,
) -> int:
    """Activations of one interferer inside a busy window.

    Ordinary interferers follow the classic jittered bound
    ``ceil((w + J_j) / T_j)``.  Same-graph *ancestors* are phase-locked:
    instance k of an ancestor always completes before instance k of the
    analysed activity becomes ready, so only the ancestor's *later*
    instances (arriving at multiples of its period after the graph
    release) can interfere -- ``ceil(max(0, w + J_own - T_j) / T_j)``,
    the offset-based reduction of the paper's ref. [10].
    """
    if is_ancestor:
        slack = window + own_jitter - period
        return ceil_div(slack, period) if slack > 0 else 0
    return ceil_div(window + jitter, period)


def fps_task_busy_window(
    task: Task,
    interferers: Sequence[Task],
    availability: NodeAvailability,
    jitters: Mapping[str, int],
    period_of,
    cap: int,
    own_jitter: int = 0,
    ancestors: frozenset = frozenset(),
) -> WcrtResult:
    """Longest busy window of *task* (response time excluding its own jitter).

    Parameters
    ----------
    interferers:
        Higher-priority FPS tasks of the same node.
    availability:
        The node's SCS slack pattern.
    jitters:
        Release jitter per activity name (defaults to 0 when absent).
    period_of:
        Callable mapping an activity name to its period.
    cap:
        Truncation bound for divergent recurrences.
    own_jitter:
        The analysed task's own release jitter (worst predecessor
        finish); used only for the ancestor interference reduction.
    ancestors:
        Names of same-graph transitive predecessors of *task*.
    """
    rows = []
    for j in interferers:
        p = period_of(j.name)
        jit = own_jitter - p if j.name in ancestors else jitters.get(j.name, 0)
        rows.append((p, jit, j.wcet))
    value, converged, _ = resolved_busy_window(
        task.wcet, rows, availability, cap
    )
    return WcrtResult(value=value, converged=converged)


def resolved_busy_window(
    wcet: int,
    rows: Sequence[Tuple[int, int, int]],
    availability: NodeAvailability,
    cap: int,
    seeds: Optional[Sequence[Optional[int]]] = None,
    prune: bool = True,
) -> Tuple[int, bool, List[Optional[int]]]:
    """The FPS busy-window kernel: the worst window over all critical
    instants, from resolved ``(period, jitter, wcet)`` interferer rows.

    ``rows`` carry each interferer's jitter already resolved -- its
    release jitter, or for a same-graph ancestor the *negative* offset
    ``own_jitter - period``, with which the unified count ``ceil(s /
    period) if s > 0 else 0`` for ``s = window + jitter`` reproduces
    :func:`interference_count` exactly for both interferer kinds.  The
    holistic fix point resolves them from its int-row state,
    :func:`fps_task_busy_window` from a jitter map.  The result does not
    depend on the row order.

    ``seeds[k]`` optionally supplies a starting demand for the busy
    window at critical instant k.  Seeds MUST be certified lower bounds
    of the instant's converged demand: the demand recurrence is monotone,
    so iterating from any start below the least fixed point reaches
    exactly the least fixed point (the start-independence argument the
    incremental analysis engine relies on).  The holistic fix point
    satisfies this by construction -- its jitters grow monotonically
    across Kleene passes, so a converged demand from an earlier pass of
    the same analysis bounds the current one from below.  Some
    uncertified seeds are caught at runtime: a descending demand step or
    an iteration-limit exit restarts that instant cold.  Not all are: a
    seed above the least fixed point may also stop at a larger fixed
    point or at the cap, which only ever raises the returned value.

    ``prune`` enables the **incremental per-instant bound** of the
    third-generation kernel.  Let ``W`` be the worst window found so
    far and ``D_W = wcet + I(W)`` one interference evaluation at ``W``
    (shared by every remaining instant).  The window map of instant t,
    ``phi_t(w) = advance(t, wcet + I(w)) - t``, is monotone, so
    ``phi_t(W) <= W`` makes ``[0, W]`` closed under ``phi_t`` and pins
    the instant's least fixed point below ``W`` -- the instant cannot
    beat the current worst and is skipped after a single table-driven
    ``advance``.  Skipped instants provably never reach the cap (their
    trajectory stays below ``W < cap``), and an activation-count guard
    (skip only while ``N(W) + 2 <= MAX_FIXPOINT_ITERATIONS``, with
    ``N(W)`` the total interferer activations inside ``W``) certifies
    they would have converged within the iteration limit, so the
    ``(value, converged)`` pair is bit-identical to the unpruned path.
    Instants are visited longest-initial-busy-run first (the
    availability's precomputed evaluation order) to grow ``W`` -- and
    with it the prune rate -- as early as possible; the maximisation is
    order-independent.

    Returns ``(value, converged, demands)`` where ``demands[k]`` is the
    converged demand at instant k -- the certified seed for the next call
    under larger jitters (``None`` for instants that were pruned, stopped
    at the iteration limit, or not reached because an earlier instant
    already hit the cap).
    """
    (instants, before, slack, period, gap_ends, through, eval_order) = (
        availability.instant_advance_tables()
    )
    n_instants = len(instants)
    demands: List[Optional[int]] = [None] * n_instants
    if not slack:
        # A fully busy node never serves any demand.
        return cap, False, demands
    worst = 0
    converged = True
    n_seeds = len(seeds) if seeds is not None else 0
    # Every instant inlines the whole demand recurrence over the
    # availability's staircase (``advance`` as one divmod plus a bisect):
    # each t0 is a critical instant, whose pattern-slack offset is
    # precomputed.  An idle node is the one-gap staircase ``[0, period)``.
    schedule = eval_order if prune else range(n_instants)
    # Per-instant bound state; recomputed lazily whenever ``worst`` grows.
    bound_demand = -1
    bound_activations = 0
    for idx in schedule:
        t0 = instants[idx]
        offset = before[idx]
        if prune and worst > 0:
            if bound_demand < 0:
                bound_demand = wcet
                bound_activations = 0
                for p, jit, c_j in rows:
                    s = worst + jit
                    if s > 0:
                        count = -(-s // p)
                        bound_demand += count * c_j
                        bound_activations += count
            if bound_activations + 2 <= MAX_FIXPOINT_ITERATIONS:
                whole, rem = divmod(offset + bound_demand - 1, slack)
                k = bisect_left(through, rem + 1)
                w_bound = (
                    whole * period + gap_ends[k] - (through[k] - rem - 1) - t0
                )
                if w_bound <= worst:
                    continue
        seed = seeds[idx] if idx < n_seeds else None
        seeded = seed is not None and seed > wcet
        demand = seed if seeded else wcet
        while True:
            ok = False
            for _ in range(MAX_FIXPOINT_ITERATIONS):
                whole, rem = divmod(offset + demand - 1, slack)
                k = bisect_left(through, rem + 1)
                window = (
                    whole * period + gap_ends[k] - (through[k] - rem - 1) - t0
                )
                if window >= cap:
                    demands[idx] = demand
                    return cap, False, demands
                new_demand = wcet
                for p, jit, c_j in rows:
                    s = window + jit
                    if s > 0:
                        new_demand += -(-s // p) * c_j
                if new_demand == demand:
                    ok = True
                    break
                if seeded and new_demand < demand:
                    break
                demand = new_demand
            if ok or not seeded:
                break
            # A descending step means the seed overshot the least fixed
            # point, and a truncation at the iteration limit is
            # trajectory-dependent: replay this instant cold.
            seeded = False
            demand = wcet
        # A truncated demand may lie below the least fixed point, and a
        # seed from it would take a different trajectory than the cold
        # run: only a converged instant keeps its seed.
        demands[idx] = demand if ok else None
        if window > worst:
            worst = window
            bound_demand = -1
        converged = converged and ok
    return worst, converged, demands


def node_local_fps_cost(
    system: System,
    node: str,
    busy: Sequence[Tuple[int, int]],
    horizon: int,
) -> float:
    """Sum of FPS response times on *node* for a candidate busy pattern.

    Used by the FPS-aware SCS placement heuristic (Fig. 2 line 11) to
    compare candidate start times; ``math.inf`` when some FPS task can no
    longer finish.  Jitters are taken as zero -- this is a *relative*
    score between placements, not a final analysis.
    """
    fps = sorted(
        (t for t in system.tasks_on(node) if t.is_fps),
        key=lambda t: (t.priority, t.name),
    )
    if not fps:
        return 0.0
    availability = NodeAvailability(wrap_busy_intervals(busy, horizon), horizon)
    period_of = lambda name: system.application.period_of(name)  # noqa: E731
    cap = 16 * horizon
    total = 0.0
    for task in fps:
        result = fps_task_busy_window(
            task, hp_tasks(task, fps), availability, {}, period_of, cap
        )
        if not result.converged:
            return math.inf
        total += result.value
    return total

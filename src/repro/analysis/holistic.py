"""Holistic schedulability analysis (Section 5 of the paper).

Given a system and a candidate bus configuration:

1. build the static schedule table (SCS tasks + ST messages),
2. iterate to a global fix point: DYN message response times feed the
   release jitters of their receiver FPS tasks, whose response times feed
   the jitters of the DYN messages they send, and so on (classic holistic
   analysis; jitters grow monotonically, so the iteration converges or is
   truncated at a cap),
3. evaluate the schedulability-degree cost function Eq. (5).

The result carries a response time for *every* activity, a cost
breakdown, and a ``feasible`` flag that is False when the configuration
cannot even be constructed (e.g. a frame does not fit its segment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.schedule_table import ScheduleTable
from repro.analysis.scheduler import ScheduleOptions
from repro.core.config import FlexRayConfig
from repro.core.cost import CostBreakdown
from repro.model.system import System


#: Legal values of :attr:`AnalysisOptions.backend`, re-exported from
#: :mod:`repro.analysis.backend` so a backend is named in one place.
from repro.analysis.backend import BACKEND_MODES  # noqa: E402


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunables of the holistic analysis.

    The defaults are what every optimiser in :mod:`repro.core` uses;
    all deviations below are opt-in and documented with their
    determinism guarantee.
    """

    #: Static-scheduler knobs (FPS-aware placement, horizon factor);
    #: see :class:`~repro.analysis.scheduler.ScheduleOptions`.
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    #: Outer Kleene iteration limit, in passes per cyclic component of
    #: the fix point's schedule (an acyclic component is evaluated
    #: once); exceeding it flags the result as non-converged
    #: (``converged=False``), never raises.  An integer >= 1.
    max_holistic_iterations: int = 64
    #: The divergence cap is ``cap_factor * max(hyperperiod, deadlines,
    #: gd_cycle)`` -- larger than any deadline, so a truncated response
    #: time still counts as a finite deadline miss in the cost function.
    cap_factor: int = 8
    #: Filled-cycle computation for DYN messages: "bound" (polynomial)
    #: or "exact" (bin-covering search; tighter, slower).
    dyn_fill_strategy: str = "bound"
    #: Evaluation backend of the holistic fix point:
    #:
    #: * ``"python"`` (default) -- the pure-Python kernels; the
    #:   reference semantics every other backend is checked against.
    #: * ``"native"`` -- the compiled backend
    #:   (:mod:`repro.analysis.backend`): the per-system invariants are
    #:   lowered into int tables once per (schedule, frame structure)
    #:   group, packed into a flat blob, and each candidate's *entire*
    #:   holistic fix point runs in tight scalar C loops inside the
    #:   ``repro._native`` extension (built by the ``repro[native]``
    #:   extra), with no per-step dispatch at all.  Results are
    #:   bit-identical to ``"python"`` by contract: checked int64
    #:   arithmetic, the Python oracle for any lane that would overflow
    #:   it (and for groups with a fully busy node or an input outside
    #:   int64), and the Python path outright for
    #:   ``dyn_fill_strategy="exact"``, which the kernels do not
    #:   implement.  Selecting it without the compiled module raises a
    #:   :class:`RuntimeError` naming the ``repro[native]`` extra.
    backend: str = "python"
    #: k-error fault hypothesis: ``None`` (default) analyses the clean
    #: channel; an integer ``k >= 0`` charges up to *k* corrupted
    #: transmissions (each paid as retransmission delay) into the
    #: response-time bounds -- static activities (ST messages, and SCS
    #: tasks downstream of any message) absorb up to ``k`` whole-cycle
    #: slips, and the DYN busy-window recurrences absorb ``k`` extra
    #: frame instances at the worst per-error cycle cost.  The result is
    #: a *pessimistic* upper bound on any run with at most k channel
    #: errors (fuzz-verified against the fault-injecting simulator).
    #: ``k=0`` is bit-identical to ``None``.  Both backends implement the
    #: hypothesis natively: the compiled kernels charge the static
    #: ``k * gd_cycle`` slips and the constant per-error DYN extra
    #: cycles inside the lowered plans, bit-identically to the Python
    #: kernels.
    fault_hypothesis: Optional[int] = None


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of analysing one (system, configuration) pair."""

    config: FlexRayConfig
    feasible: bool
    schedulable: bool
    converged: bool
    cost: Optional[CostBreakdown]
    wcrt: Dict[str, int]
    table: Optional[ScheduleTable]
    failure: Optional[str] = None

    @property
    def cost_value(self) -> float:
        """Cost for optimisers: Eq. (5) when feasible, +inf otherwise."""
        if not self.feasible or self.cost is None:
            return math.inf
        return self.cost.value


class SweepRow:
    """One length of a DYN-length sweep, analysed without a configuration.

    What :meth:`AnalysisContext.analyse_sweep
    <repro.analysis.context.AnalysisContext.analyse_sweep>` returns per
    length instead of an :class:`AnalysisResult`: the outcome of
    analysing ``template.with_dyn_length(n_minislots)``, equal field for
    field to that result's, minus the configuration object and the
    schedule table.  ``failure`` is ``None`` exactly when the length is
    feasible.  ``values`` holds the response times in result order
    (``names``; the result's ``wcrt`` keys) -- or ``None`` on the
    compact copy (:meth:`compact`) the optimiser's result cache keeps.
    """

    __slots__ = (
        "template", "n_minislots", "failure", "cost", "schedulable",
        "converged", "names", "values",
    )

    def __init__(self, template, n_minislots, failure, cost, schedulable,
                 converged, names=None, values=None):
        self.template = template
        self.n_minislots = n_minislots
        self.failure = failure
        self.cost = cost
        self.schedulable = schedulable
        self.converged = converged
        self.names = names
        self.values = values

    @property
    def feasible(self) -> bool:
        return self.failure is None

    @property
    def cost_value(self) -> float:
        """Cost for optimisers, as :attr:`AnalysisResult.cost_value`."""
        if self.failure is not None or self.cost is None:
            return math.inf
        return self.cost.value

    @property
    def wcrt(self) -> Dict[str, int]:
        """The response times by activity (empty when infeasible)."""
        if self.failure is not None:
            return {}
        return dict(zip(self.names, self.values))

    def compact(self) -> "SweepRow":
        """This row without its response times."""
        return SweepRow(
            self.template, self.n_minislots, self.failure, self.cost,
            self.schedulable, self.converged,
        )

    @classmethod
    def of(cls, result: AnalysisResult) -> "SweepRow":
        """The compact row of a full *result*."""
        config = result.config
        return cls(
            config, config.n_minislots, None if result.feasible else
            result.failure, result.cost, result.schedulable, result.converged,
        )


def analysis_cap_base(app) -> int:
    """Configuration-independent part of :func:`analysis_cap`.

    ``max(hyperperiod, any deadline)`` of the application; the
    incremental analysis engine computes it once per system and combines
    it with the per-configuration ``gd_cycle``.
    """
    return max(
        app.hyperperiod,
        max(g.deadline for g in app.graphs),
        max(
            (t.deadline for t in app.tasks() if t.deadline is not None),
            default=0,
        ),
        max(
            (m.deadline for m in app.messages() if m.deadline is not None),
            default=0,
        ),
    )


def analysis_cap(system: System, config: FlexRayConfig, cap_factor: int) -> int:
    """Truncation bound for divergent recurrences.

    Larger than any deadline, so a truncated response time always counts
    as a (finite) deadline miss in the cost function.
    """
    return cap_factor * max(
        analysis_cap_base(system.application), config.gd_cycle
    )


def analyse_system(
    system: System,
    config: FlexRayConfig,
    options: AnalysisOptions = None,
    context: "AnalysisContext" = None,
) -> AnalysisResult:
    """Run the full scheduling + holistic schedulability analysis.

    ``context`` optionally supplies a warm
    :class:`~repro.analysis.context.AnalysisContext` so repeated
    analyses of one system share the per-system invariants and the
    per-static-segment schedule artifacts; results are bit-identical
    with or without one.  A context built for a different system or
    different options is ignored and a transient one is used instead.
    """
    from repro.analysis.context import AnalysisContext

    options = options or AnalysisOptions()
    if (
        context is None
        or context.system is not system
        or context.options != options
    ):
        context = AnalysisContext(system, options)
    return context.analyse(config)


def _infeasible(config: FlexRayConfig, reason: str) -> AnalysisResult:
    return AnalysisResult(
        config=config,
        feasible=False,
        schedulable=False,
        converged=False,
        cost=None,
        wcrt={},
        table=None,
        failure=reason,
    )

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


#: Legal values of :attr:`AnalysisOptions.warm_start`.
WARM_START_MODES = ("certified", "off", "verify")

#: Legal values of :attr:`AnalysisOptions.dominance`.
DOMINANCE_MODES = ("on", "off", "verify")

#: Legal values of :attr:`AnalysisOptions.backend`, re-exported from the
#: backend registry (:data:`repro.analysis.backend.BACKEND_REGISTRY`) so
#: a new backend appears in exactly one place.
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
    #: Outer Kleene iteration limit; exceeding it flags the result as
    #: non-converged (``converged=False``), never raises.
    max_holistic_iterations: int = 64
    #: The divergence cap is ``cap_factor * max(hyperperiod, deadlines,
    #: gd_cycle)`` -- larger than any deadline, so a truncated response
    #: time still counts as a finite deadline miss in the cost function.
    cap_factor: int = 8
    #: Filled-cycle computation for DYN messages: "bound" (polynomial)
    #: or "exact" (bin-covering search; tighter, slower).
    dyn_fill_strategy: str = "bound"
    #: Warm starting of the holistic fix point:
    #:
    #: * ``"certified"`` (default) -- the third-generation fast path.
    #:   The *outer* Kleene iteration is seeded from the configuration's
    #:   own static-only state (the bottom element of the lattice, hence
    #:   a provable lower bound of the least fixed point), the *inner*
    #:   busy-window recurrences warm-start from certified lower-bound
    #:   seeds (:func:`repro.analysis.fps.seeded_busy_window`,
    #:   :func:`repro.analysis.dyn.seeded_busy_window`), and the FPS
    #:   maximisation prunes critical instants through the incremental
    #:   per-instant bound.  Every ingredient is provably bit-identical
    #:   to the cold reference trajectory, which is why this mode is
    #:   default-on (and regression-locked to ``"off"`` over the full
    #:   bench sweep, adversarial points included).
    #: * ``"off"`` -- the fully cold oracle: no inner seeds, no instant
    #:   pruning, no outer state.  Slowest; exists as the reference
    #:   semantics the certified path is checked against.
    #: * ``"verify"`` -- debug mode: run the certified fast path *and*
    #:   the cold oracle, count divergences on the owning
    #:   :class:`~repro.analysis.context.AnalysisContext` (provably
    #:   always 0), and return the cold result.
    warm_start: str = "certified"
    #: Pattern-level dominance elision of FPS critical instants
    #: (the engine's newest cache layer; see ``docs/ANALYSIS.md``):
    #:
    #: * ``"on"`` (default) -- the FPS maximisation iterates only the
    #:   availability pattern's *maximal* instants; dominated instants
    #:   are elided against a cached per-pattern witness table
    #:   (:meth:`repro.analysis.availability.NodeAvailability.dominance_tables`,
    #:   built lazily on first maximisation).  Provably bit-identical to
    #:   ``"off"``: elision is value- and cap-exact by pointwise
    #:   dominance of the window maps, and the convergence flag is
    #:   certified by the same activation-count guard as the
    #:   per-instant bound (with an automatic no-dominance replay in
    #:   the near-cap regime where the guard cannot certify it).
    #: * ``"off"`` -- every critical instant is evaluated (modulo the
    #:   per-instant bound, which ``warm_start`` controls); the oracle
    #:   the dominance path is fuzzed and regression-locked against.
    #: * ``"verify"`` -- debug mode: run every FPS maximisation both
    #:   ways, count divergences on the owning
    #:   :class:`~repro.analysis.context.AnalysisContext`
    #:   (``dominance_divergences``, provably always 0), and return the
    #:   full-maximisation result.
    #:
    #: ``warm_start="off"`` (the fully cold oracle) disables dominance
    #: along with every other certified accelerator, whatever this
    #: field says.
    dominance: str = "on"
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
    #:   int64), and the Python path outright for the oracle/debug modes
    #:   (``warm_start != "certified"``, ``dominance="verify"``,
    #:   ``dyn_fill_strategy="exact"``) whose whole point is staying on
    #:   the reference path.  Selecting it without the compiled module
    #:   raises a :class:`RuntimeError` naming the ``repro[native]``
    #:   extra.
    #: * ``"verify"`` -- debug mode: run every analysis on the Python
    #:   oracle and on the compiled kernels (so it needs the extension
    #:   too), count divergences on the owning
    #:   :class:`~repro.analysis.context.AnalysisContext`
    #:   (``backend_divergences``, contractually always 0) and return
    #:   the Python result.
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


def _ancestor_sets(app) -> Dict[str, frozenset]:
    """Transitive predecessors of every activity within its graph.

    Kept as an alias of :func:`repro.analysis.context.ancestor_sets`,
    which the incremental analysis engine computes once per system.
    """
    from repro.analysis.context import ancestor_sets

    return ancestor_sets(app)


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

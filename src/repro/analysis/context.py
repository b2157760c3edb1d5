"""Incremental analysis engine: the shared :class:`AnalysisContext`.

The bus-access optimisers of Section 6 call the holistic analysis
thousands of times per run.  The pipeline mixes quantities of three very
different lifetimes, and recomputing all of them per candidate (as the
naive ``analyse_system`` loop does) dominates the optimisation time:

(a) **per-system invariants** -- ancestor closures, predecessor lists,
    period tables, ST/DYN message partitions, sorted FPS task lists,
    their higher-priority interferer rows and the fix point's
    precedence order.  Computed once per
    :class:`AnalysisContext`.

(b) **per-static-segment artifacts** -- the built
    :class:`~repro.analysis.schedule_table.ScheduleTable`, the static
    response times and the per-node
    :class:`~repro.analysis.availability.NodeAvailability` patterns.
    These depend on the static segment structure, the bus speed
    parameters and -- *only when the application sends ST messages* --
    on the cycle length ``gd_cycle`` (ST slot instances recur every
    cycle, so a different DYN length shifts them).  The cache key
    reflects exactly that dependency set, so configurations differing
    only in their FrameID assignment always share one schedule, and
    purely event-triggered applications additionally share it across
    the whole DYN-length sweep.

(c) **per-structure interference records** -- hp/lf membership,
    interferer periods, ancestor flags, adjusted frame sizes,
    transmission times and the reverse interference map of every DYN
    message.  They depend only on the FrameID assignment and the bus
    speed (the *structure key*), so each key's record is built once,
    in one place, and read by both the Python fix point and the
    compiled backend's lowering; per configuration only the
    cycle-geometry scalars (``pLatestTx``-derived ``lam``/``theta``,
    ``sigma``, sendability, the k-error cycle cost) are added.

On top of the tiers, the fix point memoises each activity's last input
signature (its own jitter plus the jitters of its interferers) and skips
the busy-window recurrence when nothing changed -- the final "no change"
sweep of the holistic iteration then costs signature comparisons instead
of full recomputation.  All caches are LRU-bounded and every shortcut is
a pure-function memoisation, so results are bit-identical to a cold run.
"""

from __future__ import annotations

import logging
from collections import OrderedDict, namedtuple
from itertools import chain
from typing import Dict, List, Tuple

from repro.analysis.availability import NodeAvailability, wrap_busy_intervals
from repro.analysis.dyn import seeded_busy_window as _dyn_busy_window
from repro.analysis.fill import FILL_STRATEGIES
from repro.analysis.fps import hp_tasks, seeded_busy_window as _fps_busy_window
from repro.analysis.priorities import critical_path_priorities
from repro.analysis.scheduler import SchedulePlan
from repro.core.config import FlexRayConfig
from repro.core.cost import cost_function
from repro.errors import ConfigurationError, SchedulingError
from repro.model.system import System
from repro.model.times import ceil_div

logger = logging.getLogger(__name__)

#: Per-static-segment artifacts (tier b).  ``failure`` carries the
#: scheduling error message when the segment cannot be scheduled at all.
_ScheduleArtifacts = namedtuple(
    "_ScheduleArtifacts", "table failure static_wcrt availability"
)

#: Prebound FPS task row (tier a): interferers as (name, period,
#: is_ancestor, wcet) tuples, predecessors for the jitter update, the
#: interferer names whose jitters form the memo signature, and
#: ``own_sensitive`` -- whether the busy window depends on the task's
#: own jitter at all (it enters the recurrence only through the
#: ancestor interference reduction, so without ancestor rows the window
#: is a pure function of the interferers' jitters and an own-jitter
#: change alone never forces a re-evaluation).
_FpsPlan = namedtuple(
    "_FpsPlan",
    "name release wcet interferers predecessors input_names own_sensitive",
)


#: One DYN message's share of a structure record (tier c): everything
#: its Eq. (3) busy window reads that depends only on the FrameID
#: assignment and the bus speed.  ``hp_info`` rows are (name, period,
#: is_ancestor), ``lf_info`` rows (name, period, is_ancestor, adjusted
#: size); ``largest`` is the sender node's largest DYN frame in
#: minislots.  ``own_sensitive`` mirrors :data:`_FpsPlan`: the
#: queuing-delay recurrence reads the message's own jitter only through
#: the ancestor interference reduction, so without ancestor rows an
#: own-jitter change alone never forces a re-evaluation (the response
#: time ``J_m + w + C_m`` is re-derived from the cached window instead).
#: ``max_adjusted`` (the largest lf adjusted size, 0 without lf rows)
#: sizes the k-error per-error cycle cost.
_DynMessage = namedtuple(
    "_DynMessage",
    "name sender frame_id hp_info lf_info lower_slots input_names ct "
    "largest own_sensitive max_adjusted",
)

#: The per-configuration scalars of one DYN message (cycle geometry on
#: top of its :data:`_DynMessage`).
_DynView = namedtuple("_DynView", "lam theta sigma sendable fault_cycles")


class _Structure:
    """The tier (c) record of one structure key, built by
    :meth:`AnalysisContext._structure`: the :data:`_DynMessage` of every
    DYN message (in ``dyn_messages`` order), the reverse interference
    map (``dependents``: who must be re-evaluated when an activity's
    jitter changes) and the compiled backend's
    :class:`~repro.analysis.backend.arrays.StructureTemplate`, built on
    first use (``None`` until then)."""

    __slots__ = ("messages", "dependents", "template")

    def __init__(self, messages, dependents):
        self.messages = messages
        self.dependents = dependents
        self.template = None


#: LRU bounds of the context caches: schedule artifacts (and the
#: compiled backend's group plans that pack them), the structure
#: records (and the schedule plans), and the validation memo and floor.
_MAX_SCHEDULE_ENTRIES = 64
_MAX_STRUCTURE_ENTRIES = 64
_MAX_VALIDATION_ENTRIES = 4096


def _lru_insert(cache: OrderedDict, key, value, bound: int) -> None:
    """Insert, evicting the least recently used entries beyond *bound*."""
    cache[key] = value
    while len(cache) > bound:
        cache.popitem(last=False)


class AnalysisContext:
    """Shared state of repeated holistic analyses of one system.

    Construct once per (system, options) pair and call :meth:`analyse`
    per candidate configuration; results are bit-identical to
    ``analyse_system(system, config, options)`` with no context.  The
    optimiser :class:`~repro.core.search.Evaluator` owns one context per
    run, which is what makes DYN-length sweeps and SA/GA neighbourhoods
    incremental instead of from-scratch.
    """

    def __init__(self, system: System, options=None):
        from repro.analysis.backend import (
            BACKEND_MODES,
            describe_backends,
            require_native,
        )
        from repro.analysis.holistic import AnalysisOptions, analysis_cap_base

        self.system = system
        self.options = options or AnalysisOptions()
        if self.options.backend not in BACKEND_MODES:
            raise ConfigurationError(
                f"unknown backend {self.options.backend!r}; "
                f"choose from {describe_backends()}"
            )
        # Fail at the one place the backend was chosen, not deep inside
        # an analysis.
        if self.options.backend == "native":
            require_native()
        if self.options.dyn_fill_strategy not in FILL_STRATEGIES:
            raise ConfigurationError(
                "unknown dyn_fill_strategy "
                f"{self.options.dyn_fill_strategy!r}; "
                f"choose from {FILL_STRATEGIES}"
            )
        fault_k = self.options.fault_hypothesis
        if fault_k is not None and (
            isinstance(fault_k, bool)
            or not isinstance(fault_k, int)
            or fault_k < 0
        ):
            raise ConfigurationError(
                f"fault_hypothesis={fault_k!r} must be None or a "
                "non-negative integer (the number of channel errors "
                "charged into the bounds)"
            )
        #: k of the k-error fault hypothesis (0 = clean channel).
        self._fault_k = fault_k or 0
        app = system.application
        self.app = app

        # --- tier (a): per-system invariants --------------------------
        self.hyperperiod = app.hyperperiod
        self.period: Dict[str, int] = {}
        for g in app.graphs:
            for t in g.tasks:
                self.period[t.name] = g.period
            for m in g.messages:
                self.period[m.name] = g.period
        self.ancestors = ancestor_sets(app)
        self.st_messages = tuple(app.st_messages())
        self.dyn_messages = tuple(app.dyn_messages())
        #: Static-side activities the k-error hypothesis inflates: every
        #: ST message (its own frame can be corrupted and its sender can
        #: slip), and every SCS task with a message among its ancestors
        #: (a corrupted input slips the TT job by whole cycles).  SCS
        #: tasks with a message-free ancestor closure cannot be delayed
        #: by channel errors at all.
        message_names = frozenset(m.name for m in app.messages())
        self._fault_static_names = frozenset(
            m.name for m in self.st_messages
        ) | frozenset(
            t.name
            for g in app.graphs
            for t in g.tasks
            if t.is_scs and self.ancestors.get(t.name, frozenset()) & message_names
        )
        self.sender_node = {
            m.name: system.sender_node(m) for m in app.messages()
        }
        self.sender_task = {
            m.name: app.graph_of(m.name).task(m.sender).name
            for m in self.dyn_messages
        }
        self.fps_by_node = {
            node: sorted(
                (t for t in system.tasks_on(node) if t.is_fps),
                key=lambda t: (t.priority, t.name),
            )
            for node in system.nodes
        }
        self.fps_plans: Dict[str, Tuple[_FpsPlan, ...]] = {}
        for node in system.nodes:
            fps = self.fps_by_node[node]
            plans = []
            for task in fps:
                anc = self.ancestors.get(task.name, frozenset())
                info = tuple(
                    (j.name, self.period[j.name], j.name in anc, j.wcet)
                    for j in hp_tasks(task, fps)
                )
                g = app.graph_of(task.name)
                plans.append(
                    _FpsPlan(
                        name=task.name,
                        release=task.release,
                        wcet=task.wcet,
                        interferers=info,
                        predecessors=tuple(g.predecessors(task.name)),
                        input_names=tuple(r[0] for r in info),
                        own_sensitive=any(r[2] for r in info),
                    )
                )
            self.fps_plans[node] = tuple(plans)
        fps_tasks = [t for node in system.nodes for t in self.fps_by_node[node]]
        #: The *slot layout* of the holistic fix point's activities: DYN
        #: messages in ``dyn_messages`` order, then FPS tasks in
        #: node/priority order.  Results list their entries in it (after
        #: the static ones).
        self._slot_names = tuple(m.name for m in self.dyn_messages) + tuple(
            t.name for t in fps_tasks
        )
        #: The evaluation order: slot positions sorted into precedence
        #: order, so one Gauss-Seidel pass evaluates a sender before its
        #: message and a message before its receiver.
        self._eval_order = precedence_order(app, self.dyn_messages, fps_tasks)
        self._cap_base = analysis_cap_base(app)
        #: The schedule depends on gd_cycle iff ST slot instances exist.
        self._st_dependent = bool(self.st_messages)
        self._period_lookup = self.period.__getitem__
        #: Lazy ``job_key -> (activity name, instance * period)`` memo:
        #: the static response times re-derive both per table otherwise
        #: (the job keys of a system are invariant across the sweep).
        self._job_base: Dict[str, tuple] = {}

        # --- caches for tiers (b) and (c) -----------------------------
        self._schedule_cache: OrderedDict = OrderedDict()
        #: One :class:`_Structure` per structure key.
        self._structure_cache: OrderedDict = OrderedDict()
        #: Retimable schedule plans (job expansion + list-scheduling
        #: order), keyed by the bus-speed parameters alone -- the whole
        #: DYN sweep, every FrameID assignment and every static-segment
        #: variant of one bus speed share a single plan.
        self._plan_cache: OrderedDict = OrderedDict()
        #: Semantic-validation memo: ``validate_for`` is a pure function
        #: of (system, configuration), so each distinct configuration is
        #: validated once.
        self._valid_cache: OrderedDict = OrderedDict()
        #: Lowered group plans of the compiled backend, keyed by
        #: (schedule key, DYN structure key); rides the same LRU bound
        #: as the schedule cache whose artifacts it packs.
        self._backend_plans: OrderedDict = OrderedDict()
        #: Monotone validation floor: per (everything except the DYN
        #: length), the smallest ``n_minislots`` that validated clean.
        #: Growing the dynamic segment only relaxes ``validate_for``'s
        #: checks (``pLatestTx`` rises, FrameID fits get easier, the
        #: static checks do not involve it), so any configuration at or
        #: above the floor is valid without re-scanning the system.
        self._valid_floor: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # cached derivations
    # ------------------------------------------------------------------
    def _plan(self, config: FlexRayConfig) -> SchedulePlan:
        """Retimable schedule plan for *config*'s bus-speed parameters.

        The plan (job expansion, dependency keys, list-scheduling order)
        is invariant across the cycle geometry, so its cache key is the
        bus speed alone (as are the critical-path priorities it orders
        by): one plan serves every candidate of a DYN-length sweep, and
        each candidate's table is a cheap placement replay.
        """
        key = (config.bits_per_mt, config.frame_overhead_bytes)
        plan = self._plan_cache.get(key)
        if plan is None:
            plan = SchedulePlan(
                self.system,
                self.options.schedule,
                critical_path_priorities(self.app, config),
            )
            _lru_insert(self._plan_cache, key, plan, _MAX_STRUCTURE_ENTRIES)
        return plan

    def _validate(self, config: FlexRayConfig):
        """Memoised ``config.validate_for(system)``: the failure message,
        or ``None`` when the configuration is legal.

        Two layers: an exact per-configuration memo, and the monotone
        validation floor -- a DYN-length sweep full-validates its first
        legal point and clears every longer sibling in O(1).
        """
        key = config.cache_key()
        failure = self._valid_cache.get(key, False)
        if failure is not False:
            return failure
        # The floor key is everything except the DYN length, derived
        # from the configuration directly (not by slicing ``cache_key``,
        # whose layout belongs to ``repro.core.config``).
        n = config.n_minislots
        floor_key = (
            config.static_key(),
            tuple(sorted(config.frame_ids.items())),
        )
        floor = self._valid_floor.get(floor_key)
        if floor is not None and n >= floor:
            failure = None
        else:
            try:
                config.validate_for(self.system)
            except ConfigurationError as exc:
                failure = f"configuration invalid: {exc}"
            else:
                failure = None
                if floor is None or n < floor:
                    _lru_insert(
                        self._valid_floor,
                        floor_key,
                        n,
                        _MAX_VALIDATION_ENTRIES,
                    )
        _lru_insert(
            self._valid_cache, key, failure, _MAX_VALIDATION_ENTRIES
        )
        return failure

    def _static_wcrt(self, table) -> Dict[str, int]:
        """Static response times of *table*, with job bases memoised.

        Identical to
        :func:`repro.analysis.st_msg.static_response_times`, but the
        ``job_key -> (name, instance * period)`` decomposition is cached
        on the context -- the job keys of a system never change across
        the sweep, only the placements do.
        """
        bases = self._job_base
        period = self.period
        wcrt: Dict[str, int] = {}
        wcrt_get = wcrt.get
        for entries in (table.tasks, table.messages):
            for key, entry in entries.items():
                nb = bases.get(key)
                if nb is None:
                    name, instance = key.rsplit("#", 1)
                    nb = (name, int(instance) * period[name])
                    bases[key] = nb
                name, base = nb
                v = entry.finish - base
                cur = wcrt_get(name, 0)
                wcrt[name] = v if v > cur else cur
        return wcrt

    def _schedule_artifacts(self, config: FlexRayConfig) -> _ScheduleArtifacts:
        """Tier (b): replay-or-fetch the static schedule and its derivates."""
        key = self.schedule_key(config)
        entry = self._schedule_cache.get(key)
        if entry is not None:
            self._schedule_cache.move_to_end(key)
            return entry
        try:
            table = self._plan(config).replay(config)
        except SchedulingError as exc:
            entry = _ScheduleArtifacts(
                table=None,
                failure=f"static scheduling failed: {exc}",
                static_wcrt=None,
                availability=None,
            )
        else:
            static_wcrt = self._static_wcrt(table)
            availability = {
                node: NodeAvailability(
                    wrap_busy_intervals(
                        table.busy_intervals(node), table.horizon
                    ),
                    table.horizon,
                )
                for node in self.system.nodes
            }
            entry = _ScheduleArtifacts(
                table=table,
                failure=None,
                static_wcrt=static_wcrt,
                availability=availability,
            )
        _lru_insert(self._schedule_cache, key, entry, _MAX_SCHEDULE_ENTRIES)
        return entry

    def structure_key(self, config: FlexRayConfig) -> tuple:
        """Identity of *config*'s DYN interference structure (tier c).

        FrameID assignment plus the bus-speed parameters: two
        configurations sharing this key have identical hp/lf rows,
        transmission times and reverse interference maps (they can still
        differ in cycle geometry, i.e. the per-view scalars).
        """
        return (
            tuple(sorted(config.frame_ids.items())),
            config.bits_per_mt,
            config.frame_overhead_bytes,
            config.gd_minislot,
        )

    def _structure(self, config: FlexRayConfig) -> _Structure:
        """Tier (c): the structure record of *config*'s structure key.

        The one place a FrameID assignment's DYN interference structure
        is derived; the Python fix point and the compiled backend's
        lowering both read it.
        """
        key = self.structure_key(config)
        record = self._structure_cache.get(key)
        if record is not None:
            self._structure_cache.move_to_end(key)
            return record
        bits = config.bits_per_mt
        overhead = config.frame_overhead_bytes
        ms_len = config.gd_minislot
        frame_ids = config.frame_ids
        period = self.period
        sender_node = self.sender_node
        cts = {
            m.name: ceil_div((m.size + overhead) * 8, bits)
            for m in self.dyn_messages
        }
        minislots = {name: ceil_div(ct, ms_len) for name, ct in cts.items()}
        largest: Dict[str, int] = {}
        for name, size in minislots.items():
            node = sender_node[name]
            if size > largest.get(node, 0):
                largest[node] = size
        messages = []
        dependents: Dict[str, List[str]] = {}
        for m in self.dyn_messages:
            f = frame_ids[m.name]
            node = sender_node[m.name]
            anc = self.ancestors.get(m.name, frozenset())
            hp_rows: List[tuple] = []
            lf_rows: List[tuple] = []
            input_names: List[str] = []
            for other in self.dyn_messages:
                if other.name == m.name:
                    continue
                other_f = frame_ids[other.name]
                if other_f < f:
                    lf_rows.append(
                        (other.name, period[other.name], other.name in anc,
                         minislots[other.name] - 1)
                    )
                    input_names.append(other.name)
                elif (
                    other_f == f
                    and sender_node[other.name] == node
                    and (other.priority, other.name)
                    <= (m.priority, m.name)
                ):
                    hp_rows.append(
                        (other.name, period[other.name], other.name in anc)
                    )
                    input_names.append(other.name)
            for inp in input_names:
                dependents.setdefault(inp, []).append(m.name)
            messages.append(
                _DynMessage(
                    name=m.name,
                    sender=self.sender_task[m.name],
                    frame_id=f,
                    hp_info=tuple(hp_rows),
                    lf_info=tuple(lf_rows),
                    lower_slots=f - 1,
                    input_names=tuple(input_names),
                    ct=cts[m.name],
                    largest=largest[node],
                    own_sensitive=any(r[2] for r in hp_rows)
                    or any(r[2] for r in lf_rows),
                    max_adjusted=max((r[3] for r in lf_rows), default=0),
                )
            )
        for node in self.system.nodes:
            for plan in self.fps_plans[node]:
                for inp in plan.input_names:
                    dependents.setdefault(inp, []).append(plan.name)
        record = _Structure(
            tuple(messages),
            {name: tuple(v) for name, v in dependents.items()},
        )
        _lru_insert(
            self._structure_cache, key, record, _MAX_STRUCTURE_ENTRIES
        )
        return record

    def _dyn_views(self, config: FlexRayConfig, structure: _Structure):
        """The per-configuration scalars of every DYN message, aligned
        with ``structure.messages``."""
        n_minislots = config.n_minislots
        gd_cycle = config.gd_cycle
        st_bus = config.st_bus
        ms_len = config.gd_minislot
        fault_k = self._fault_k
        views = []
        for msg in structure.messages:
            f = msg.frame_id
            p_latest = n_minislots - msg.largest + 1
            lam = p_latest - 1
            theta = lam - f + 2
            sendable = f <= p_latest
            fault_cycles = 0
            if fault_k and sendable:
                # Worst per-error cycle cost charged into Eq. (3): a
                # corrupted own/hp frame occupies slot f for one extra
                # cycle; a corrupted lf frame re-injects one instance of
                # (at worst) the largest adjusted size, adding at most
                # ``a // theta`` filled cycles plus one cycle each for
                # the instance-count bound and the final-cycle leftover.
                max_adjusted = msg.max_adjusted
                per_error = 1 if max_adjusted <= 0 else 2 + max_adjusted // theta
                fault_cycles = fault_k * per_error
            views.append(
                _DynView(
                    lam=lam,
                    theta=theta,
                    sigma=gd_cycle - st_bus - (f - 1) * ms_len,
                    sendable=sendable,
                    fault_cycles=fault_cycles,
                )
            )
        return views

    def schedule_key(self, config: FlexRayConfig) -> tuple:
        """Identity of everything *config*'s schedule table depends on.

        ``static_key()`` plus -- only when the application sends ST
        messages -- the cycle length.  Configurations sharing this key
        produce byte-identical schedules.  (ST slot *placements* are not
        cycle-length-invariant -- a later cycle starts at a different
        absolute time, shifting message readiness chains -- so the
        per-table key must keep ``gd_cycle``; what collapses to
        ``static_key()`` alone is the :class:`SchedulePlan` the table is
        replayed from, see :meth:`_plan`.)
        """
        return config.static_key() + (
            (config.gd_cycle,) if self._st_dependent else ()
        )

    # ------------------------------------------------------------------
    # the analysis itself
    # ------------------------------------------------------------------
    def analyse(self, config: FlexRayConfig):
        """Full scheduling + holistic analysis of one configuration.

        Bit-identical to :func:`repro.analysis.holistic.analyse_system`
        run without a context, and to :meth:`analyse_cold`; see the
        module docstring for what is shared between calls.
        ``options.backend`` selects the evaluation backend (see
        :class:`~repro.analysis.holistic.AnalysisOptions`).
        """
        if self.options.backend == "native":
            return self.analyse_batch([config])[0]
        return self._analyse_python(config)

    def analyse_cold(self, config: FlexRayConfig):
        """The fully cold oracle the certified path is checked against.

        Python kernels whatever the backend, with no inner seeds, no
        instant pruning and no dominance elision; bit-identical to
        :meth:`analyse`, only slower.
        """
        return self._analyse_python(config, certified=False)

    def analyse_batch(self, configs) -> list:
        """Analyse a list of configurations under ``options.backend``.

        The batch entry point of :meth:`Evaluator.analyse_many
        <repro.core.search.Evaluator>`: with ``backend="python"`` it is
        exactly the per-candidate loop; with ``backend="native"`` the
        feasible candidates are grouped by (schedule key, DYN structure
        key) and each group runs on the compiled kernels
        (:func:`repro.analysis.backend.native.run_group_native`).
        Result lists are ordered like *configs* and bit-identical across
        backends.
        """
        if self.options.backend == "native":
            return self._analyse_native_batch(configs)
        return [self._analyse_python(c) for c in configs]

    def _analyse_native_batch(self, configs) -> list:
        """The compiled-kernel path of :meth:`analyse_batch`.

        Candidates are grouped by (schedule key, DYN structure key), the
        per-group :class:`~repro.analysis.backend.arrays.GroupPlan`
        lowering is cached on the context, and infeasible candidates
        short-circuit exactly like the Python path.  Each group runs
        through :func:`repro.analysis.backend.native.run_group_native`,
        which hands structurally unsafe groups, groups with an input
        outside int64 and single lanes that overflowed int64 in the
        kernel back to the Python oracle (:meth:`_analyse_fetched`).
        """
        if self.options.dyn_fill_strategy != "bound":
            # The kernels implement the polynomial fill bound only.
            return [self._analyse_python(c) for c in configs]
        from repro.analysis.backend.arrays import GroupPlan
        from repro.analysis.backend.native import run_group_native
        from repro.analysis.holistic import _infeasible

        results = [None] * len(configs)
        # key -> (the group's schedule artifacts, candidate indices); the
        # artifacts fetched here travel on the plan, so a batch wider
        # than the schedule cache replays each schedule once, not twice.
        groups: "OrderedDict[tuple, tuple]" = OrderedDict()
        for i, config in enumerate(configs):
            failure = self._validate(config)
            if failure is not None:
                results[i] = _infeasible(config, failure)
                continue
            arts = self._schedule_artifacts(config)
            if arts.failure is not None:
                results[i] = _infeasible(config, arts.failure)
                continue
            key = (self.schedule_key(config), self.structure_key(config))
            groups.setdefault(key, (arts, []))[1].append(i)
        for key, (arts, indices) in groups.items():
            plan = self._backend_plans.get(key)
            if plan is None:
                plan = GroupPlan(self, configs[indices[0]], arts)
                _lru_insert(
                    self._backend_plans, key, plan, _MAX_SCHEDULE_ENTRIES
                )
            else:
                self._backend_plans.move_to_end(key)
            for i, result in zip(
                indices,
                run_group_native(self, plan, [configs[i] for i in indices]),
            ):
                results[i] = result
        return results

    def _analyse_python(self, config: FlexRayConfig, certified: bool = True):
        """The pure-Python analysis (reference semantics of every backend)."""
        from repro.analysis.holistic import _infeasible

        failure = self._validate(config)
        if failure is not None:
            return _infeasible(config, failure)

        arts = self._schedule_artifacts(config)
        if arts.failure is not None:
            return _infeasible(config, arts.failure)
        return self._analyse_fetched(config, arts, certified)

    def _analyse_fetched(
        self,
        config: FlexRayConfig,
        arts: _ScheduleArtifacts,
        certified: bool = True,
    ):
        """The oracle on a validated configuration and its fetched
        schedule artifacts -- the Python path past validation and the
        schedule fetch, and where the compiled backend delegates the
        groups it cannot run."""
        options = self.options
        cap_base = self._cap_base
        gd_cycle = config.gd_cycle
        cap = options.cap_factor * (cap_base if cap_base > gd_cycle else gd_cycle)
        wcrt, converged = self._fix_point(config, arts, cap, certified)
        return self._result(config, arts, wcrt, converged)

    def _result(self, config: FlexRayConfig, arts: _ScheduleArtifacts,
                wcrt: Dict[str, int], converged: bool):
        """The result tail shared by the oracle and the compiled
        backend: Eq. (5) on the wcrt dict, the cached schedule retimed
        to *config*."""
        from repro.analysis.holistic import AnalysisResult

        table = (
            arts.table
            if arts.table.config is config
            else arts.table.retime_for(config)
        )
        cost = cost_function(self.app, wcrt)
        return AnalysisResult(
            config=config,
            feasible=True,
            schedulable=cost.schedulable and converged,
            converged=converged,
            cost=cost,
            wcrt=wcrt,
            table=table,
        )

    def _fix_point(
        self,
        config: FlexRayConfig,
        arts: _ScheduleArtifacts,
        cap: int,
        certified: bool = True,
    ) -> Tuple[Dict[str, int], bool]:
        """The holistic Kleene iteration; returns ``(wcrt, converged)``.

        With ``certified=True`` this is the default fast path: the outer
        state starts from the configuration's own static-only state (the
        bottom element, a provable lower bound of
        the least fixed point), its jitters grow monotonically across
        passes, and that monotonicity certifies the *inner* warm starts
        -- each busy-window recurrence is seeded with its own previous
        converged demand/window, a lower bound of the new least fixed
        point, so the seeded recurrence provably converges to exactly
        the cold value (see :func:`repro.analysis.fps.seeded_busy_window`,
        whose incremental per-instant bound is also enabled here).

        ``certified=False`` is the fully cold oracle the fast path is
        verified against: same bottom start, but no inner seeds, no
        instant pruning and no dominance elision.

        Both walk DYN messages and FPS tasks in one Gauss-Seidel pass in
        precedence order (``_eval_order``), so a task -> message -> task
        chain settles in one pass instead of one pass per hop; any pass
        order reaches the same least fixed point (docs/ANALYSIS.md,
        "Evaluation order").
        """
        options = self.options
        fill_strategy = options.dyn_fill_strategy
        availability = arts.availability
        fps_plans = self.fps_plans
        nodes = self.system.nodes
        structure = self._structure(config)
        gd_cycle = config.gd_cycle
        st_bus = config.st_bus
        ms_len = config.gd_minislot

        wcrt: Dict[str, int] = dict(arts.static_wcrt)
        if self._fault_k:
            # k-error hypothesis, static side: each channel error delays
            # any ST frame or message-fed TT job by at most one whole
            # bus cycle (a corrupted static frame retries in its slot's
            # next cycle instance; a displaced or input-starved group
            # slips exactly one cycle per error ahead of it), so k
            # errors cost at most k cycles per static activity.  The
            # inflated values then feed the DYN/FPS jitters through the
            # holistic fix point below.
            bump = self._fault_k * config.gd_cycle
            for name in self._fault_static_names:
                value = wcrt.get(name)
                if value is not None:
                    inflated = value + bump
                    wcrt[name] = inflated if inflated < cap else cap
        jitters: Dict[str, int] = {}
        inner_seeds: Dict[str, object] = {}
        # Pattern-level dominance (cache layer 3) rides with
        # ``certified``: the elided instant sets live on the cached
        # NodeAvailability objects, so they ride the per-static-segment
        # schedule cache -- a pure-DYN sweep builds them once for the
        # whole sweep.
        wcrt_get = wcrt.get
        jitters_get = jitters.get
        seeds_get = inner_seeds.get
        # Exact change tracking replaces per-pass input-signature tuples:
        # an activity's busy window is a pure function of its own jitter
        # and its interferers' jitters, so it must be re-evaluated iff
        # its own jitter changed (``last_own``) or some interferer's
        # jitter was updated since its last evaluation (``dirty``, fed by
        # the reverse interference map).
        deps_get = structure.dependents.get
        dirty = set()
        dirty_add = dirty.add
        last_own: Dict[str, int] = {}
        last_out: Dict[str, Tuple[int, bool]] = {}
        # (activity, availability, view) slots in the slot layout,
        # walked in precedence order; a DYN message's slot carries its
        # per-configuration view instead of an availability.
        slots = [
            (msg, None, view)
            for msg, view in zip(
                structure.messages, self._dyn_views(config, structure)
            )
        ] + [
            (plan, availability[node], None)
            for node in nodes
            for plan in fps_plans[node]
        ]
        acts = [slots[i] for i in self._eval_order]
        converged = True
        for _ in range(options.max_holistic_iterations):
            changed = False
            for act, node_availability, view in acts:
                name = act.name
                is_dyn = node_availability is None
                if is_dyn:
                    # DYN message: jitter inherited from the sender task.
                    j = wcrt_get(act.sender, 0)
                else:
                    # FPS task: jitter = worst finish of any predecessor.
                    j = act.release
                    for pred in act.predecessors:
                        v = wcrt_get(pred, 0)
                        if v > j:
                            j = v
                if jitters_get(name, 0) != j:
                    jitters[name] = j
                    changed = True
                    for dep in deps_get(name, ()):
                        dirty_add(dep)
                # The memo caches the busy *window* (a pure function of
                # the interferers' jitters -- plus the own jitter only
                # when ancestor rows exist), so an own-jitter change
                # alone just re-derives the response time from it.
                cached = (
                    last_out.get(name)
                    if name not in dirty
                    and (not act.own_sensitive or last_own.get(name) == j)
                    else None
                )
                if cached is not None:
                    w, ok = cached
                else:
                    if not is_dyn:
                        w, ok, demands = _fps_busy_window(
                            act.wcet,
                            act.interferers,
                            node_availability,
                            jitters,
                            cap,
                            j,
                            seeds_get(name) if certified else None,
                            certified,
                            certified,
                        )
                        if certified:
                            inner_seeds[name] = demands
                    elif view.sendable:
                        w, ok, final = _dyn_busy_window(
                            act.hp_info,
                            act.lf_info,
                            act.lower_slots,
                            view.lam,
                            view.theta,
                            view.sigma,
                            act.ct,
                            gd_cycle,
                            st_bus,
                            ms_len,
                            jitters,
                            cap,
                            j,
                            fill_strategy,
                            seeds_get(name) if certified else None,
                            view.fault_cycles,
                        )
                        if certified:
                            inner_seeds[name] = final
                    else:
                        # The frame can never be sent: certain miss.
                        w, ok = None, False
                    dirty.discard(name)
                    last_own[name] = j
                    last_out[name] = (w, ok)
                converged = converged and ok
                if w is None:
                    value = cap
                else:
                    # R_m = J_m + w + C_m for a message, J_i + w for a task.
                    value = j + w + act.ct if is_dyn else j + w
                    if value > cap:
                        value = cap
                if wcrt_get(name) != value:
                    wcrt[name] = value
                    changed = True

            if not changed:
                break
        else:
            converged = False
        # Results list their entries in the slot layout after the static
        # ones, whatever order the passes ran in.
        wcrt = {
            name: wcrt[name]
            for name in chain(arts.static_wcrt, self._slot_names)
            if name in wcrt
        }
        return wcrt, converged


def precedence_order(app, dyn_messages, fps_tasks) -> Tuple[int, ...]:
    """Positions into ``dyn_messages + fps_tasks`` in precedence order.

    Sorted by each activity's longest-path depth in its task graph
    (tasks and messages both count as hops), so every predecessor comes
    first; ties break on FPS before DYN, then priority (FPS tasks) and
    name.  The order is a pure function of the system.
    """
    depth: Dict[str, int] = {}
    for g in app.graphs:
        for name in g.topological_order():
            depth[name] = max(
                (depth[p] + 1 for p in g.predecessors(name)), default=0
            )
    keys = [(depth[m.name], 1, 0, m.name) for m in dyn_messages] + [
        (depth[t.name], 0, t.priority, t.name) for t in fps_tasks
    ]
    return tuple(sorted(range(len(keys)), key=keys.__getitem__))


def ancestor_sets(app) -> Dict[str, frozenset]:
    """Transitive predecessors of every activity within its graph."""
    out: Dict[str, frozenset] = {}
    for g in app.graphs:
        closure: Dict[str, set] = {}
        for name in g.topological_order():
            anc = set()
            for pred in g.predecessors(name):
                anc.add(pred)
                anc |= closure[pred]
            closure[name] = anc
        for name, anc in closure.items():
            out[name] = frozenset(anc)
    return out

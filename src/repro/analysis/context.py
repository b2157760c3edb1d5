"""Incremental analysis engine: the shared :class:`AnalysisContext`.

The bus-access optimisers of Section 6 call the holistic analysis
thousands of times per run.  The pipeline mixes quantities of three very
different lifetimes, and recomputing all of them per candidate (as the
naive ``analyse_system`` loop does) dominates the optimisation time:

(a) **per-system invariants** -- ancestor closures, predecessor lists,
    period tables, ST/DYN message partitions, sorted FPS task lists,
    their higher-priority interferers (by slot), the fix point's precedence
    order and the FrameID-independent edges of its dependency graph.
    Computed once per :class:`AnalysisContext`.

(b) **per-static-segment artifacts** -- the replayed
    :class:`~repro.analysis.schedule_table.ScheduleRecord` (a result's
    table is a view of it), the static response times and the per-node
    :class:`~repro.analysis.availability.NodeAvailability` patterns.
    These depend on the static segment structure, the bus speed
    parameters and -- *only when the application sends ST messages* --
    on the cycle length ``gd_cycle`` (ST slot instances recur every
    cycle, so a different DYN length shifts them).  The cache key
    reflects exactly that dependency set, so configurations differing
    only in their FrameID assignment always share one schedule, and
    purely event-triggered applications additionally share it across
    the whole DYN-length sweep.  A sweep with ST messages meets each
    key once, so it reads the cache but keeps none of its builds.

(c) **per-structure int rows** -- every activity of the fix point
    lowered to int rows: a row index per activity, the hp/lf and FPS
    interferers as rows (same-graph ancestors as ``(row, period,
    size)`` entries) over a per-row ``(period, size)`` table,
    transmission times, predecessor and sender rows, the reverse
    interference map, and the fix point's *component schedule*
    (the strongly connected components of the activities' dependency
    graph in topological order; DYN hp/lf interference edges depend on
    the FrameIDs).  They depend only on the FrameID assignment and the
    bus speed (the *structure key*), so each key's record is built
    once, in one place.  The one record is read by both the Python fix
    point (its state lives in lists indexed by row) and the compiled
    backend's :class:`~repro.analysis.backend.arrays.StructureTemplate`
    (which packs the same rows into the C plan blob); per
    configuration only the cycle geometry (``pLatestTx``-derived
    ``lam``/``theta``, ``sigma``, sendability, the k-error cycle cost)
    is computed, inline.  The busy-window kernels take the interferer
    rows resolved to ``(period, jitter or ancestor offset, size)``.

Every analysis reads all three tiers per length from one template and
a length -- no configuration per length: a DYN-length sweep
(:meth:`AnalysisContext.analyse_sweep`) returns compact rows, and a
single configuration (:meth:`AnalysisContext.analyse`) is the same
path at its own length.

The fix point walks the component schedule: an acyclic component is
evaluated once (its inputs are final by then), and only a cyclic one
iterates.  Inside a cyclic component it tracks which activities'
inputs changed and skips the busy-window recurrence when nothing did --
the final "no change" pass then costs lookups instead of full
recomputation.  All caches are LRU-bounded and every shortcut is a
pure-function memoisation, so results are bit-identical to a cold run.
"""

from __future__ import annotations

import heapq
import logging
from collections import OrderedDict, namedtuple
from typing import Dict, List, Tuple

from repro.analysis.availability import NodeAvailability, wrap_busy_intervals
from repro.analysis.dyn import resolved_busy_window as _dyn_busy_window
from repro.analysis.fill import FILL_STRATEGIES
from repro.analysis.fps import hp_tasks, resolved_busy_window as _fps_busy_window
from repro.analysis.holistic import (
    AnalysisOptions,
    AnalysisResult,
    SweepRow,
    _infeasible,
    analysis_cap_base,
)
from repro.analysis.priorities import critical_path_priorities
from repro.analysis.schedule_table import ScheduleTable
from repro.analysis.scheduler import SchedulePlan
from repro.core.config import FlexRayConfig
from repro.core.cost import cost_order, cost_over
from repro.errors import ConfigurationError, SchedulingError
from repro.model.system import System
from repro.model.times import ceil_div, transmission_time

logger = logging.getLogger(__name__)

#: Per-static-segment artifacts (tier b): the replayed
#: :class:`~repro.analysis.schedule_table.ScheduleRecord` (a result's
#: table is a view of it), the static response times and the per-node
#: availability.  ``failure`` carries the scheduling error message when
#: the segment cannot be scheduled at all.
_ScheduleArtifacts = namedtuple(
    "_ScheduleArtifacts", "record failure static_wcrt availability"
)

#: One FPS task's tier (a) row, in the slot layout.  ``interferers``
#: are ``(slot, period, is_ancestor, wcet)`` over the node's
#: higher-priority FPS tasks (slot positions, not names) and
#: ``predecessors`` names the activities whose response times form the
#: task's jitter; the structure record lowers both to int rows.
_FpsTask = namedtuple("_FpsTask", "release wcet node predecessors interferers")

#: The row layout of one bus speed and minislot length, shared by its
#: structure records.  ``names``: the static names in the bus-speed
#: plan's ``jobs.names`` order (the schedule artifacts' ``static_wcrt``
#: values fill their rows in order), then the slot layout; ``tail``:
#: the initial zeros of every row past the static ones (the rows of
#: names read but in neither included); ``n_static``; ``interference``:
#: per row the ``(period, jitter, size)`` an interferer row resolves
#: to at jitter 0 -- size is a DYN message's adjusted frame size, an
#: FPS task's wcet (``(0, 0, 0)`` past the slots); the DYN messages'
#: ``cts``, ``minislots`` and ``senders`` rows; the FPS tasks' ``preds``
#: rows and their interferers split into ``plain`` rows and ``anc``
#: ``(row, period, wcet)`` entries (same-graph ancestors); the static
#: ``fault_rows`` the k-error hypothesis inflates; and ``cost_rows``,
#: Eq. (5)'s ``(row, deadline)`` terms (``None`` when some activity has
#: no row, which :func:`~repro.core.cost.cost_over` then reports).
_Rows = namedtuple(
    "_Rows",
    "names tail n_static interference cts minislots senders preds plain "
    "anc fault_rows cost_rows",
)


class _Structure:
    """The tier (c) record of one structure key, lowered to int rows by
    :meth:`AnalysisContext._structure`.

    *Rows* index the fix point's response-time and interference lists:
    the static activities first, then the slot layout, then any other
    name an activity reads (a row that stays 0) -- the :data:`_Rows`
    layout, shared by the records of one bus speed.  ``names`` lists
    the static and slot rows' names (the result dict's keys, in order),
    ``tail`` the initial zeros of every row past the static ones,
    ``n_rows`` counts them all and ``interference`` holds each row's
    ``(period, jitter, size)`` at jitter 0.

    ``acts`` lists the activities in schedule order (``order``: their
    slot positions; ``components``: ``(start, end, cyclic)`` slices, see
    :func:`component_schedule`).  Every act starts ``(kind, row,
    own_sensitive, deps, add)`` -- ``deps`` are the act positions in
    the same cyclic component that read its jitter (re-evaluated when
    it changes), ``own_sensitive`` says whether its window reads its
    own jitter at all (only through ancestor entries), and ``add`` is
    what the response time adds to jitter plus window -- followed by

    * a DYN message (kind 0, ``add`` its transmission time ``ct``):
      ``sender_row, lower_slots, frame_id, largest, max_adjusted, hp,
      lf, hp_anc, lf_anc``; ``largest`` is the sender node's largest
      frame in minislots and ``max_adjusted`` the largest lf adjusted
      size (0 without lf rows), which sizes the k-error cycle cost;
    * an FPS task (kind 1, ``add`` 0): ``release, preds, wcet,
      av_index, interferers, anc``; ``av_index`` picks its node from
      ``av_nodes``.

    Interferers are plain rows (``hp``, ``lf``, ``interferers``, read at
    the row's current jitter) plus ``(row, period, size)`` ancestor
    entries (``hp_anc``, ``lf_anc``, ``anc``), whose count reads the own
    jitter instead.  Rows ascend within each, which is the interferer
    order of the C plan blob.  ``fault_rows`` are the static rows the
    k-error hypothesis inflates, and ``template`` the compiled
    backend's :class:`~repro.analysis.backend.arrays.StructureTemplate`,
    packed from these rows on first use (``None`` until then).
    """

    __slots__ = (
        "names", "tail", "n_rows", "interference", "acts", "order",
        "components", "av_nodes", "fault_rows", "cost_rows", "template",
    )

    def __init__(self, rows, acts, order, components, av_nodes):
        self.names = rows.names
        self.cost_rows = rows.cost_rows
        self.tail = rows.tail
        self.n_rows = rows.n_static + len(rows.tail)
        self.interference = rows.interference
        self.fault_rows = rows.fault_rows
        self.acts = acts
        self.order = order
        self.components = components
        self.av_nodes = av_nodes
        self.template = None


#: LRU bounds of the context caches: schedule artifacts (and the
#: compiled backend's group plans that pack them), the structure
#: records (and the schedule plans), and the validation floor.
_MAX_SCHEDULE_ENTRIES = 64
_MAX_STRUCTURE_ENTRIES = 64
_MAX_VALIDATION_ENTRIES = 4096


def _lru_insert(cache: OrderedDict, key, value, bound: int) -> None:
    """Insert, evicting the least recently used entries beyond *bound*."""
    cache[key] = value
    while len(cache) > bound:
        cache.popitem(last=False)


def _lru_fetch(cache: OrderedDict, key, keep: bool, build, *args):
    """``cache[key]``, marked recently used, else ``build(*args)``,
    inserted under the schedule bound only when *keep*."""
    value = cache.get(key)
    if value is None:
        value = build(*args)
        if keep:
            _lru_insert(cache, key, value, _MAX_SCHEDULE_ENTRIES)
    else:
        cache.move_to_end(key)
    return value


class AnalysisContext:
    """Shared state of repeated holistic analyses of one system.

    Construct once per (system, options) pair and call :meth:`analyse`
    per candidate configuration, or :meth:`analyse_sweep` per static
    variant at many DYN lengths; results are bit-identical to
    ``analyse_system(system, config, options)`` with no context, and to
    the cold oracle :meth:`analyse_cold`.  All three run one per-length
    path (:meth:`_analyse_lengths`) on either backend.  The optimiser
    :class:`~repro.core.search.Evaluator` owns one context per run,
    which is what makes DYN-length sweeps and SA/GA neighbourhoods
    incremental instead of from-scratch.
    """

    def __init__(self, system: System, options=None):
        from repro.analysis.backend import (
            BACKEND_MODES,
            describe_backends,
            require_native,
        )

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
        for field, what in (
            ("max_holistic_iterations", "the pass budget of each cyclic "
             "component"),
            ("cap_factor", "the multiple of max(hyperperiod, deadlines, "
             "gd_cycle) that caps a diverging response time"),
        ):
            value = getattr(self.options, field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{field}={value!r} must be an integer >= 1 ({what})"
                )
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
        #: Eq. (5)'s ``(activity, deadline)`` terms, resolved once.
        self._cost_order = cost_order(app)
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
        fps_tasks = [t for node in system.nodes for t in self.fps_by_node[node]]
        #: The *slot layout* of the holistic fix point's activities: DYN
        #: messages in ``dyn_messages`` order, then FPS tasks in
        #: node/priority order.  Results list their entries in it (after
        #: the static ones).
        self._slot_names = tuple(m.name for m in self.dyn_messages) + tuple(
            t.name for t in fps_tasks
        )
        slot_pos = {name: i for i, name in enumerate(self._slot_names)}
        fps_rows = []
        for node in system.nodes:
            fps = self.fps_by_node[node]
            for task in fps:
                anc = self.ancestors.get(task.name, frozenset())
                fps_rows.append(
                    _FpsTask(
                        release=task.release,
                        wcet=task.wcet,
                        node=node,
                        predecessors=tuple(
                            app.graph_of(task.name).predecessors(task.name)
                        ),
                        interferers=tuple(
                            (slot_pos[j.name], self.period[j.name],
                             j.name in anc, j.wcet)
                            for j in hp_tasks(task, fps)
                        ),
                    )
                )
        #: The FPS tasks' tier (a) rows, in the slot layout.
        self._fps_tasks: Tuple[_FpsTask, ...] = tuple(fps_rows)
        #: Slot positions sorted into precedence order (a sender before
        #: its message, a message before its receiver): the order inside
        #: each component of the fix point's schedule, and its
        #: tie-break between components.
        self._eval_order = precedence_order(app, self.dyn_messages, fps_tasks)
        #: The FrameID-independent edges of the fix point's dependency
        #: graph over slot positions: ``_readers[u]`` lists the positions
        #: that read u's response time (a DYN message its sender's, an
        #: FPS task its predecessors') or u's jitter (an FPS task its
        #: interferers').  :meth:`_structure` adds the DYN hp/lf edges.
        readers: List[List[int]] = [[] for _ in self._slot_names]
        for i, m in enumerate(self.dyn_messages):
            sender = slot_pos.get(self.sender_task[m.name])
            if sender is not None:
                readers[sender].append(i)
        n_dyn = len(self.dyn_messages)
        for i, task in enumerate(self._fps_tasks, n_dyn):
            for name in task.predecessors:
                u = slot_pos.get(name)
                if u is not None:
                    readers[u].append(i)
            for u, _, _, _ in task.interferers:
                readers[u].append(i)
        self._readers = tuple(tuple(r) for r in readers)
        self._cap_base = analysis_cap_base(app)
        #: The schedule depends on gd_cycle iff ST slot instances exist.
        self._st_dependent = bool(self.st_messages)

        # --- caches for tiers (b) and (c) -----------------------------
        self._schedule_cache: OrderedDict = OrderedDict()
        #: One :class:`_Structure` per structure key, and one row layout
        #: (:data:`_Rows`) per bus speed that its records share.
        self._structure_cache: OrderedDict = OrderedDict()
        self._row_cache: OrderedDict = OrderedDict()
        #: Retimable schedule plans (job expansion + list-scheduling
        #: order), keyed by the bus-speed parameters alone -- the whole
        #: DYN sweep, every FrameID assignment and every static-segment
        #: variant of one bus speed share a single plan.
        self._plan_cache: OrderedDict = OrderedDict()
        #: Lowered group plans of the compiled backend, keyed by
        #: (schedule key, DYN structure key).  A plan holds the
        #: artifacts it packs, so it follows the schedule cache's
        #: bound and lifetime rule (see :meth:`_analyse_lengths`).
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
        """``config.validate_for(system)`` as a failure message, or
        ``None`` when the configuration is legal."""
        try:
            config.validate_for(self.system)
        except ConfigurationError as exc:
            return f"configuration invalid: {exc}"
        return None

    def _static_wcrt(self, record) -> Dict[str, int]:
        """Static response times of a replayed schedule *record*.

        Per activity the largest ``finish - instance * period`` over its
        jobs, in the job table's ``names`` order: the values and the key
        order of :func:`repro.analysis.st_msg.static_response_times`.
        """
        jobs = record.jobs
        worst = [0] * len(jobs.names)
        for n, f, base in zip(jobs.name_of, record.finish, jobs.base):
            v = f - base
            if v > worst[n]:
                worst[n] = v
        return dict(zip(jobs.names, worst))

    def _artifacts_at(
        self, config: FlexRayConfig, gd_cycle: int
    ) -> _ScheduleArtifacts:
        """Tier (b): replay the static schedule of *config*'s static
        segment at the cycle length *gd_cycle*, and its derivates.

        The static response times and the availability patterns read
        the replay's flat record; no table entry is built.  The one
        caller, :meth:`_analyse_lengths`, fetches the artifacts from
        ``_schedule_cache`` first and decides whether a build is kept.
        """
        try:
            record = self._plan(config).replay(config, gd_cycle=gd_cycle)
        except SchedulingError as exc:
            entry = _ScheduleArtifacts(
                record=None,
                failure=f"static scheduling failed: {exc}",
                static_wcrt=None,
                availability=None,
            )
        else:
            horizon = record.horizon
            availability = {}
            for node in self.system.nodes:
                busy = record.busy.get(node, [])
                # Sorted, disjoint and starting at >= 0: only a spill
                # past the horizon needs folding back into the period.
                if busy and busy[-1][1] > horizon:
                    busy = wrap_busy_intervals(busy, horizon)
                availability[node] = NodeAvailability(busy, horizon)
            entry = _ScheduleArtifacts(
                record=record,
                failure=None,
                static_wcrt=self._static_wcrt(record),
                availability=availability,
            )
        return entry

    def structure_key(self, config: FlexRayConfig) -> tuple:
        """Identity of *config*'s DYN interference structure (tier c).

        FrameID assignment plus the bus-speed parameters: two
        configurations sharing this key have identical hp/lf rows,
        transmission times and reverse interference maps (they can still
        differ in cycle geometry, i.e. the per-view scalars).
        """
        return (
            config.frame_key,
            config.bits_per_mt,
            config.frame_overhead_bytes,
            config.gd_minislot,
        )

    def _rows(self, config: FlexRayConfig) -> _Rows:
        """The row layout of *config*'s bus speed (see :data:`_Rows`).

        The static names follow the bus-speed ``SchedulePlan`` (replay
        lists the static response times in plan order) and the DYN frame
        sizes the minislot length, so every structure record of one
        (bus speed, minislot) pair shares its rows.
        """
        bits = config.bits_per_mt
        overhead = config.frame_overhead_bytes
        ms_len = config.gd_minislot
        key = (bits, overhead, ms_len)
        layout = self._row_cache.get(key)
        if layout is not None:
            return layout
        static_names = self._plan(config).jobs.names
        names = static_names + self._slot_names
        row_of = {name: i for i, name in enumerate(names)}
        base = len(static_names)

        def row(name: str) -> int:
            # Names read but neither static nor slots (defensive: senders
            # and predecessors are always covered) get a zero row.
            i = row_of.get(name)
            if i is None:
                i = row_of[name] = len(row_of)
            return i

        dyn = self.dyn_messages
        senders = tuple(row(self.sender_task[m.name]) for m in dyn)
        preds = tuple(
            tuple(row(p) for p in task.predecessors) for task in self._fps_tasks
        )
        cts = tuple(transmission_time(m.size, overhead, bits) for m in dyn)
        minislots = tuple(ceil_div(ct, ms_len) for ct in cts)
        interference = (
            [(0, 0, 0)] * base
            + [(self.period[m.name], 0, q - 1) for m, q in zip(dyn, minislots)]
            + [(self.period[n], 0, t.wcet)
               for n, t in zip(self._slot_names[len(dyn):], self._fps_tasks)]
            + [(0, 0, 0)] * (len(row_of) - len(names))
        )
        layout = _Rows(
            names=names,
            tail=(0,) * (len(row_of) - base),
            n_static=base,
            interference=tuple(interference),
            cts=cts,
            minislots=minislots,
            senders=senders,
            preds=preds,
            plain=tuple(
                tuple(base + u for u, _, anc, _ in task.interferers if not anc)
                for task in self._fps_tasks
            ),
            anc=tuple(
                tuple((base + u, p, c) for u, p, anc, c in task.interferers if anc)
                for task in self._fps_tasks
            ),
            fault_rows=tuple(
                i for i, name in enumerate(static_names)
                if name in self._fault_static_names
            ),
            cost_rows=(
                tuple((row_of[name], d) for name, d in self._cost_order)
                if all(
                    row_of.get(name, len(names)) < len(names)
                    for name, _ in self._cost_order
                )
                else None
            ),
        )
        _lru_insert(self._row_cache, key, layout, _MAX_STRUCTURE_ENTRIES)
        return layout

    def _structure(self, config: FlexRayConfig) -> _Structure:
        """Tier (c): the int-row structure record of *config*'s
        structure key.

        The one place a FrameID assignment's DYN interference structure
        is derived and lowered to rows; the Python fix point and the
        compiled backend's :class:`StructureTemplate
        <repro.analysis.backend.arrays.StructureTemplate>` both read it.
        """
        key = self.structure_key(config)
        record = self._structure_cache.get(key)
        if record is not None:
            self._structure_cache.move_to_end(key)
            return record
        frame_ids = config.frame_ids
        period = self.period
        sender_node = self.sender_node
        dyn = self.dyn_messages
        n_dyn = len(dyn)
        rows = self._rows(config)
        base = rows.n_static
        minislots = rows.minislots
        largest = config.bus_table(self.system).dyn_largest

        # DYN hp/lf rows, and the reverse interference map over slot
        # positions (DYN readers first, then the FPS ones).
        readers = [list(r) for r in self._readers]
        dependents: List[List[int]] = [[] for _ in self._slot_names]
        dyn_rows = []
        for i, m in enumerate(dyn):
            f = frame_ids[m.name]
            node = sender_node[m.name]
            anc = self.ancestors.get(m.name, frozenset())
            hp: List[int] = []
            lf: List[int] = []
            hp_anc: List[tuple] = []
            lf_anc: List[tuple] = []
            max_adjusted = 0
            for k, other in enumerate(dyn):
                if k == i:
                    continue
                other_f = frame_ids[other.name]
                if other_f < f:
                    adjusted = minislots[k] - 1
                    if adjusted > max_adjusted:
                        max_adjusted = adjusted
                    if other.name in anc:
                        lf_anc.append((base + k, period[other.name], adjusted))
                    else:
                        lf.append(base + k)
                elif (
                    other_f == f
                    and sender_node[other.name] == node
                    and (other.priority, other.name)
                    <= (m.priority, m.name)
                ):
                    if other.name in anc:
                        hp_anc.append((base + k, period[other.name], 0))
                    else:
                        hp.append(base + k)
                else:
                    continue
                dependents[k].append(i)
                readers[k].append(i)
            dyn_rows.append((
                rows.cts[i], rows.senders[i], f - 1, f, largest[node],
                max_adjusted, tuple(hp), tuple(lf), tuple(hp_anc),
                tuple(lf_anc),
            ))
        for i, task in enumerate(self._fps_tasks, n_dyn):
            for u, _, _, _ in task.interferers:
                dependents[u].append(i)

        order, components = component_schedule(self._eval_order, readers)
        # Only a reader in the same cyclic component needs the dirty
        # mark: one in a later component has not run yet, and its first
        # evaluation reads the final jitter anyway.
        act_pos = [0] * len(order)
        comp_of = [-1] * len(order)
        for c, (start, end, cyclic) in enumerate(components):
            for pos in range(start, end):
                act_pos[order[pos]] = pos
                if cyclic:
                    comp_of[pos] = c
        av_nodes: List[str] = []
        acts = []
        for pos, slot in enumerate(order):
            deps = tuple(
                act_pos[v] for v in dependents[slot]
                if comp_of[act_pos[v]] == comp_of[pos] >= 0
            )
            if slot < n_dyn:
                fields = dyn_rows[slot]
                own = bool(fields[-2] or fields[-1])
                acts.append((0, base + slot, own, deps) + fields)
            else:
                k = slot - n_dyn
                task = self._fps_tasks[k]
                if task.node not in av_nodes:
                    av_nodes.append(task.node)
                acts.append((
                    1, base + slot, bool(rows.anc[k]), deps, 0,
                    task.release, rows.preds[k], task.wcet,
                    av_nodes.index(task.node), rows.plain[k], rows.anc[k],
                ))
        record = _Structure(
            rows, tuple(acts), order, components, tuple(av_nodes)
        )
        _lru_insert(
            self._structure_cache, key, record, _MAX_STRUCTURE_ENTRIES
        )
        return record

    def schedule_key(self, config: FlexRayConfig, gd_cycle: int) -> tuple:
        """Identity of everything the schedule table of *config*'s
        static segment at the cycle length *gd_cycle* depends on.

        ``static_key()`` plus -- only when the application sends ST
        messages -- the cycle length.  Configurations sharing this key
        produce byte-identical schedules.  (ST slot *placements* are not
        cycle-length-invariant -- a later cycle starts at a different
        absolute time, shifting message readiness chains -- so the
        per-table key must keep ``gd_cycle``; what collapses to
        ``static_key()`` alone is the :class:`SchedulePlan` the table is
        replayed from, see :meth:`_plan`.)
        """
        key = config.static_key()
        return key + (gd_cycle,) if self._st_dependent else key

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
        (out,) = self._analyse_lengths(config, (config.n_minislots,))
        return self._result(config, out)

    def analyse_cold(self, config: FlexRayConfig):
        """The fully cold oracle the certified path is checked against.

        Python kernels whatever the backend, with no inner seeds and no
        instant pruning; bit-identical to :meth:`analyse`, only slower.
        """
        (out,) = self._analyse_lengths(
            config, (config.n_minislots,), certified=False
        )
        return self._result(config, out)

    def analyse_sweep(self, sweep) -> list:
        """Analyse one static variant at many DYN lengths.

        *sweep* names a template configuration and its ``lengths`` (a
        :class:`~repro.core.runtime.CandidateSweep`); length n stands
        for ``template.with_dyn_length(n)``, but no configuration is
        built per length (see :meth:`_analyse_lengths`).

        Returns one entry per length, in order: a
        :class:`~repro.analysis.holistic.SweepRow` -- failure or cost,
        schedulable, converged and the response times -- except at the
        sweep's best (the first lowest ``cost_value``), which is the
        full :class:`~repro.analysis.holistic.AnalysisResult`.  Every
        entry equals :meth:`analyse` of that length's configuration,
        field for field.
        """
        template = sweep.template
        lengths = sweep.lengths
        entries: list = []
        # The running best: (index, its core output).
        best = None
        for n, out in zip(lengths, self._analyse_lengths(template, lengths)):
            if isinstance(out, str):
                row = SweepRow(template, n, out, None, False, False)
            else:
                _, structure, values, converged = out
                names = structure.names
                del values[len(names):]
                cost_rows = structure.cost_rows
                cost = (
                    cost_over(cost_rows, values) if cost_rows is not None
                    # Some activity has no row: the name-keyed fold
                    # reports it.
                    else cost_over(self._cost_order, dict(zip(names, values)))
                )
                row = SweepRow(
                    template, n, None, cost,
                    cost.schedulable and converged, converged, names, values,
                )
            if best is None or row.cost_value < entries[best[0]].cost_value:
                best = (len(entries), out)
            entries.append(row)
        if best is not None:
            i, out = best
            entries[i] = self._result(template.with_dyn_length(lengths[i]), out)
        return entries

    def _analyse_lengths(self, template: FlexRayConfig, lengths,
                         certified: bool = True):
        """The one per-length analysis path behind :meth:`analyse`,
        :meth:`analyse_cold` and :meth:`analyse_sweep`.

        Analyses *template*'s static variant at each DYN length of
        *lengths*; length n stands for ``template.with_dyn_length(n)``,
        and only a length below the monotone validation floor builds
        that configuration, to validate it (the template validates
        itself at its own length).  The first legal length clears every
        longer one.  The structure record is derived once, and per
        length the schedule is fetched by its :meth:`schedule_key` and
        the fix point runs: on the Python kernels, or under
        ``backend="native"`` on the compiled ones, consecutive lengths
        sharing a schedule as the lanes of one group
        (:func:`repro.analysis.backend.native.run_group_native`); a lane
        the kernels hand back runs on the Python fix point, on the
        artifacts already fetched.  ``certified=False`` runs the cold
        oracle's Python kernels whatever the backend.

        Artifacts and group plans are looked up in their LRU caches
        first.  A build is kept there unless the call sweeps several
        lengths of a system with ST messages: every length then has
        its own schedule key, which the sweep never meets again, so
        its builds live only as long as their lanes.

        Yields per length, in order, its failure message or ``(arts,
        structure, wcrt, converged)``: the schedule artifacts, the
        structure record and the response times by row (result order:
        ``structure.names`` first).
        """
        st_bus = template.st_bus
        ms_len = template.gd_minislot
        floor_key = (template.static_key(), template.frame_key)
        floor = self._valid_floor.get(floor_key)
        native = certified and self._native_kernels()
        keep = not self._st_dependent or len(lengths) == 1
        structure = None
        # Native: consecutive feasible lengths sharing a schedule key,
        # run as one group -- ``(key, artifacts, lanes)``.
        run = None

        def flush():
            from repro.analysis.backend.arrays import GroupPlan
            from repro.analysis.backend.native import run_group_native

            key, arts, lanes = run
            plan = _lru_fetch(
                self._backend_plans, (key, self.structure_key(template)),
                keep, GroupPlan, structure, arts,
            )
            for lane, out in zip(
                lanes, run_group_native(self, plan, lanes, ms_len)
            ):
                if out is None:  # the oracle analyses this lane
                    out = self._fix_point(
                        structure, arts, *lane, ms_len, self._cap(lane[1])
                    )
                yield (arts, structure, *out)

        for n in lengths:
            if floor is None or n < floor:
                failure = self._validate(
                    template if n == template.n_minislots
                    else template.with_dyn_length(n)
                )
                if failure is None:  # every longer length is legal too
                    floor = n
                    _lru_insert(
                        self._valid_floor, floor_key, n, _MAX_VALIDATION_ENTRIES
                    )
            else:
                failure = None
            if failure is None:
                gd_cycle = st_bus + n * ms_len
                key = self.schedule_key(template, gd_cycle)
                arts = _lru_fetch(
                    self._schedule_cache, key, keep,
                    self._artifacts_at, template, gd_cycle,
                )
                failure = arts.failure
            if failure is not None:
                if run is not None:
                    yield from flush()
                    run = None
                yield failure
                continue
            if structure is None:
                structure = self._structure(template)
            lane = (n, gd_cycle, st_bus)
            if not native:
                yield (arts, structure, *self._fix_point(
                    structure, arts, *lane, ms_len, self._cap(gd_cycle),
                    certified,
                ))
            elif run is not None and run[0] == key:
                run[2].append(lane)
            else:
                if run is not None:
                    yield from flush()
                run = (key, arts, [lane])
        if run is not None:
            yield from flush()

    def _native_kernels(self) -> bool:
        """Whether analyses run on the compiled kernels: the native
        backend, under the "bound" fill strategy the kernels implement."""
        return (
            self.options.backend == "native"
            and self.options.dyn_fill_strategy == "bound"
        )

    def _cap(self, gd_cycle: int) -> int:
        """The divergence cap at cycle length *gd_cycle*
        (:func:`~repro.analysis.holistic.analysis_cap`)."""
        cap_base = self._cap_base
        return self.options.cap_factor * (
            cap_base if cap_base > gd_cycle else gd_cycle
        )

    def _result(self, config: FlexRayConfig, out):
        """The full result of *config* from its :meth:`_analyse_lengths`
        output *out*: the infeasible result of a failure, or Eq. (5) on
        the wcrt dict and a view of the schedule record bound to
        *config*."""
        if isinstance(out, str):
            return _infeasible(config, out)
        arts, structure, values, converged = out
        wcrt = dict(zip(structure.names, values))
        cost = cost_over(self._cost_order, wcrt)
        return AnalysisResult(
            config=config,
            feasible=True,
            schedulable=cost.schedulable and converged,
            converged=converged,
            cost=cost,
            wcrt=wcrt,
            table=ScheduleTable.from_record(config, arts.record),
        )

    def _fix_point(
        self,
        structure: _Structure,
        arts: _ScheduleArtifacts,
        n_minislots: int,
        gd_cycle: int,
        st_bus: int,
        ms_len: int,
        cap: int,
        certified: bool = True,
    ) -> Tuple[List[int], bool]:
        """The holistic Kleene iteration over *structure*'s rows at one
        cycle geometry; returns ``(wcrt, converged)``, the response
        times by row (result order: ``structure.names`` first).

        With ``certified=True`` this is the default fast path: the outer
        state starts from the configuration's own static-only state (the
        bottom element, a provable lower bound of
        the least fixed point), its jitters grow monotonically across
        passes, and that monotonicity certifies the *inner* warm starts
        -- each busy-window recurrence is seeded with its own previous
        converged demand/window, a lower bound of the new least fixed
        point, so the seeded recurrence provably converges to exactly
        the cold value (see :func:`repro.analysis.fps.resolved_busy_window`,
        whose incremental per-instant bound is also enabled here).

        ``certified=False`` is the fully cold oracle the fast path is
        verified against: same bottom start, but no inner seeds and no
        instant pruning.

        Both walk the structure record's component schedule: the
        strongly connected components of the dependency graph in
        topological order, members in precedence order.  An acyclic
        component is evaluated once -- everything it reads is final by
        then -- and a cyclic one runs Gauss-Seidel passes over its
        members until a pass changes nothing, at most
        ``max_holistic_iterations`` of them; running out clears
        ``converged``.  Every walk that stops on no-change passes
        reaches the same least fixed point (docs/ANALYSIS.md,
        "Evaluation order").
        """
        options = self.options
        fill_strategy = options.dyn_fill_strategy
        acts = structure.acts
        availability = arts.availability
        avs = [availability[node] for node in structure.av_nodes]
        fault_k = self._fault_k

        # Response times and jitters by row; the static rows start from
        # the replayed schedule, every other row from 0.
        wcrt = [*arts.static_wcrt.values(), *structure.tail]
        if fault_k:
            # k-error hypothesis, static side: each channel error delays
            # any ST frame or message-fed TT job by at most one whole
            # bus cycle (a corrupted static frame retries in its slot's
            # next cycle instance; a displaced or input-starved group
            # slips exactly one cycle per error ahead of it), so k
            # errors cost at most k cycles per static activity.  The
            # inflated values then feed the DYN/FPS jitters through the
            # holistic fix point below.
            bump = fault_k * gd_cycle
            for r in structure.fault_rows:
                inflated = wcrt[r] + bump
                wcrt[r] = inflated if inflated < cap else cap
        # Each row's resolved interferer row ``(period, jitter, size)``,
        # replaced whenever the row's jitter changes: a busy window picks
        # its plain interferers' rows from here as they are.
        resolved = list(structure.interference)
        get = resolved.__getitem__
        # Per act position: exact change tracking instead of per-pass
        # input signatures.  An activity's busy window is a pure function
        # of its own jitter and its interferers' jitters, so it must be
        # re-evaluated iff its own jitter changed (``last_own``, read
        # only when ancestor entries make the window depend on it) or
        # some interferer's jitter was updated since its last evaluation
        # (``dirty``, fed by the acts' ``deps``).  ``last_ok`` is None
        # until the first evaluation.
        n_acts = len(acts)
        dirty = [False] * n_acts
        last_own = [0] * n_acts
        last_w = [None] * n_acts
        last_ok = [None] * n_acts
        seeds = [None] * n_acts
        budget = options.max_holistic_iterations
        converged = True
        for start, end, cyclic in structure.components:
            for it in range(budget if cyclic else 1):
                # A first pass writes every member's response time for
                # the first time: always a change.
                changed = not it
                for pos in range(start, end):
                    act = acts[pos]
                    fps = act[0]
                    if fps:
                        # FPS task: jitter = worst finish of any predecessor.
                        (_, row, own_sensitive, deps, add, j, preds, wcet,
                         av, ints, anc) = act
                        for r in preds:
                            v = wcrt[r]
                            if v > j:
                                j = v
                    else:
                        # DYN message: jitter inherited from the sender task.
                        (_, row, own_sensitive, deps, add, sender, lower, f,
                         largest, max_adjusted, hp, lf, hp_anc, lf_anc) = act
                        j = wcrt[sender]
                    own = resolved[row]
                    if own[1] != j:
                        resolved[row] = (own[0], j, own[2])
                        changed = True
                        for dep in deps:
                            dirty[dep] = True
                    # The cache keeps the busy *window* (a pure function of
                    # the interferers' jitters -- plus the own jitter only
                    # when ancestor entries exist), so an own-jitter change
                    # alone just re-derives the response time from it.  An
                    # ancestor's row resolves to the offset ``j - period``
                    # (see repro.analysis.fps.resolved_busy_window).
                    if (
                        dirty[pos]
                        or (own_sensitive and last_own[pos] != j)
                        or last_ok[pos] is None
                    ):
                        if fps:
                            rows = list(map(get, ints))
                            if own_sensitive:
                                rows += [(p, j - p, c) for _, p, c in anc]
                            w, ok, demands = _fps_busy_window(
                                wcet,
                                rows,
                                avs[av],
                                cap,
                                seeds[pos],
                                certified,
                            )
                            if certified:
                                seeds[pos] = demands
                        else:
                            # The cycle geometry (pLatestTx of the
                            # sender node) of this configuration.
                            lam = n_minislots - largest
                            if f <= lam + 1:
                                theta = lam - f + 2
                                extra = 0
                                if fault_k:
                                    # Worst per-error cycle cost charged
                                    # into Eq. (3): a corrupted own/hp
                                    # frame occupies slot f for one extra
                                    # cycle; a corrupted lf frame
                                    # re-injects one instance of (at
                                    # worst) the largest adjusted size,
                                    # adding at most ``a // theta`` filled
                                    # cycles plus one cycle each for the
                                    # instance-count bound and the
                                    # final-cycle leftover.
                                    extra = fault_k * (
                                        1 if max_adjusted <= 0
                                        else 2 + max_adjusted // theta
                                    )
                                # hp rows are rare: an empty tuple
                                # passes as it is.
                                hp_rows = hp and list(map(get, hp))
                                lf_rows = list(map(get, lf))
                                if own_sensitive:
                                    hp_rows = [*hp_rows, *[
                                        (p, j - p, a) for _, p, a in hp_anc
                                    ]]
                                    lf_rows += [
                                        (p, j - p, a) for _, p, a in lf_anc
                                    ]
                                w, ok, final = _dyn_busy_window(
                                    hp_rows,
                                    lf_rows,
                                    lower,
                                    lam,
                                    theta,
                                    gd_cycle - st_bus - lower * ms_len,
                                    add,
                                    gd_cycle,
                                    st_bus,
                                    ms_len,
                                    cap,
                                    fill_strategy,
                                    seeds[pos],
                                    extra,
                                )
                                if certified:
                                    seeds[pos] = final
                            else:
                                # The frame can never be sent: certain miss.
                                w, ok = None, False
                        dirty[pos] = False
                        last_own[pos] = j
                        last_w[pos] = w
                        last_ok[pos] = ok
                    else:
                        w = last_w[pos]
                        ok = last_ok[pos]
                    if not ok:
                        converged = False
                    if w is None:
                        value = cap
                    else:
                        # R_m = J_m + w + C_m (message), J_i + w (task).
                        value = j + w + add
                        if value > cap:
                            value = cap
                    if wcrt[row] != value:
                        wcrt[row] = value
                        changed = True

                if not (changed and cyclic):
                    break
            else:
                converged = False
        # Rows list the static entries, then the slot layout, whatever
        # order the passes ran in.
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


def component_schedule(order, readers):
    """The fix point's component schedule over slot positions.

    *order* is the precedence order (a permutation of the positions)
    and ``readers[u]`` lists the positions that read u's response time
    or jitter -- the dependency graph's edges.  Returns ``(flat,
    components)``: the strongly connected components in topological
    order, ties broken by lowest precedence rank, with members in
    precedence order, concatenated into ``flat``; ``components`` holds
    one ``(start, end, cyclic)`` slice of ``flat`` per component.  A
    component is cyclic when it has more than one member or a
    self-loop; only a cyclic one needs more than one evaluation.
    """
    n = len(order)
    rank = [0] * n
    for r, pos in enumerate(order):
        rank[pos] = r
    # Tarjan's algorithm, iterative; ``comp[v]`` numbers the components
    # in completion order (reverse topological).
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: List[int] = []
    members: List[List[int]] = []
    counter = 0
    for root in order:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(readers[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(readers[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    c = len(members)
                    group = []
                    while True:
                        w = stack.pop()
                        comp[w] = c
                        group.append(w)
                        if w == v:
                            break
                    group.sort(key=rank.__getitem__)
                    members.append(group)
    # Kahn's algorithm over the condensation, always releasing the
    # ready component whose first member ranks lowest.
    indegree = [0] * len(members)
    for u in range(n):
        for v in readers[u]:
            if comp[u] != comp[v]:
                indegree[comp[v]] += 1
    ready = [(rank[g[0]], c) for c, g in enumerate(members) if not indegree[c]]
    heapq.heapify(ready)
    flat: List[int] = []
    components = []
    while ready:
        c = heapq.heappop(ready)[1]
        group = members[c]
        start = len(flat)
        flat += group
        cyclic = len(group) > 1 or group[0] in readers[group[0]]
        components.append((start, len(flat), cyclic))
        for u in group:
            for v in readers[u]:
                d = comp[v]
                if d != c:
                    indegree[d] -= 1
                    if not indegree[d]:
                        heapq.heappush(ready, (rank[members[d][0]], d))
    return tuple(flat), tuple(components)


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

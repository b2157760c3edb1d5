"""Once-per-group lowering for the compiled backend.

A *group* is a set of candidate configurations sharing both the
schedule key (identical static schedule, availability patterns and
static response times) and the DYN structure key (identical FrameID
assignment and bus-speed parameters, hence identical hp/lf interference
rows and transmission times).  Everything that is invariant across such
a group -- activity indices, interferer rows, availability staircase
tables, the reverse interference map -- is lowered here exactly once
into plain ints and tuples and cached on the owning
:class:`~repro.analysis.context.AnalysisContext`; the per-lane scalars
(caps, cycle geometry) are resolved per batch by
:func:`repro.analysis.backend.native.run_group_native`, which packs the
lowering into the int64 blob the C kernels parse.

A pure-DYN sweep is one group end to end (every candidate shares the
schedule and the FrameID assignment).  An ST-heavy sweep degenerates to
*singleton* groups -- a fresh group per cycle length -- so the lowering
itself becomes the hot path.  Everything in an activity plan is in fact
invariant under the **structure key alone** (interferer rows, FrameIDs,
transmission times, dependency maps: none of it reads the schedule);
only the availability staircase tables and the static response times
vary with the schedule key.  :class:`StructureTemplate` therefore
caches the whole activity lowering once per structure key (plus the
static-name order, defensively), and :class:`GroupPlan` construction
collapses to binding availability patterns and filling ``w0`` -- which
is what lets the compiled backend beat the warm Python path even on
singleton-lane sweeps.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

class AvailabilityArrays:
    """Staircase tables of one ``NodeAvailability`` pattern.

    ``stair`` is True for every pattern the compiled FPS kernel
    handles: a non-degenerate pattern (some busy time, some slack) uses
    the divmod/bisect staircase over the precomputed
    ``gap_ends``/``slack_through`` prefix sums, and a fully *idle* node
    (``advance(t0, d) = t0 + d``) is lowered as the equivalent synthetic
    one-gap staircase (``before = 0``, ``slack = period``,
    ``gap_ends = through = [period]``, so the staircase collapses to
    ``window = demand`` -- exactly the Python generic path's result).
    Only fully busy nodes (zero slack, ``advance`` returns ``None``)
    keep ``stair`` False, which sends their groups to the Python oracle.
    The lists are the pattern's own (read-only) instant tables.
    """

    __slots__ = (
        "stair", "instants", "before", "slack", "period", "gap_ends",
        "through", "eval_order", "n_instants",
    )

    def __init__(self, availability):
        tables = availability.instant_advance_tables(False)
        self.slack = tables.slack_per_period
        self.period = tables.period
        self.n_instants = len(tables.instants)
        self.stair = self.slack > 0
        self.instants = tables.instants
        self.eval_order = tables.eval_order
        if not self.stair:
            self.before = None
            self.gap_ends = None
            self.through = None
        elif tables.gap_ends is not None:
            self.before = tables.slack_before
            self.gap_ends = tables.gap_ends
            self.through = tables.slack_through
        else:  # fully idle: the synthetic identity staircase
            self.before = [0] * self.n_instants
            self.gap_ends = [self.period]
            self.through = [self.period]


def availability_arrays(availability) -> AvailabilityArrays:
    """Per-pattern tables, cached on the availability instance.

    Availability objects live in the context's per-static-segment
    schedule cache, so the lowering rides the same lifetime: a pure-DYN
    sweep lowers each node's pattern once for the whole sweep.
    """
    arrays = getattr(availability, "_backend_arrays", None)
    if arrays is None:
        arrays = AvailabilityArrays(availability)
        availability._backend_arrays = arrays
    return arrays


class DynActPlan:
    """Group-invariant lowering of one DYN message's Eq. (3) fix point."""

    __slots__ = (
        "name", "kind", "row", "sender_row", "own_sensitive", "ct",
        "lower_slots", "dep_rows", "frame_id", "largest", "hp_rows",
        "lf_rows", "max_adjusted",
    )

    def __init__(self, name, row, sender_row, view, name_idx, frame_id,
                 largest):
        self.name = name
        self.kind = "dyn"
        self.row = row
        self.sender_row = sender_row
        self.own_sensitive = view.own_sensitive
        self.ct = view.ct
        self.lower_slots = view.lower_slots
        self.dep_rows = ()
        # The message's FrameID and its sender node's largest DYN frame:
        # with these two group-invariant ints the per-lane view scalars
        # (``lam``/``theta``/``sigma``/``sendable``) are pure arithmetic
        # in the lane's ``n_minislots``/``gd_cycle``, so the kernel never
        # needs per-lane ``_DynView`` objects.
        self.frame_id = frame_id
        self.largest = largest
        # Interferer rows as (period, is_ancestor, jitter_row[, adjusted])
        # int tuples; ancestor rows read the own jitter, so their jitter
        # row is a placeholder 0.  Under the "bound" fill strategy, lf
        # rows with adjusted size <= 0 contribute to neither ``lf_total``
        # nor ``lf_useful`` -- they are dropped here, which is exact (the
        # Python loop adds nothing for them either).
        self.hp_rows = tuple(
            (r[1], int(r[2]), 0 if r[2] else name_idx[r[0]])
            for r in view.hp_info
        )
        self.lf_rows = tuple(
            (r[1], int(r[2]), 0 if r[2] else name_idx[r[0]], r[3])
            for r in view.lf_info
            if r[3] > 0
        )
        # The k-error per-error cycle cost depends on the largest lf
        # adjusted size (``_dyn_views``: max over *all* lf rows, default
        # 0 -- but ``per_error`` is 1 whenever that max is <= 0, so the
        # exact Python value is preserved even though rows with
        # adjusted <= 0 are dropped above).
        self.max_adjusted = max((r[3] for r in view.lf_info), default=0)


class FpsActPlan:
    """Structure-invariant lowering of one FPS task's busy-window
    maximisation.  Template instances (built once per structure key)
    leave the schedule-dependent slots unset; :meth:`bind` attaches a
    concrete availability pattern for one group."""

    __slots__ = (
        "name", "kind", "row", "pred_rows", "release", "wcet",
        "own_sensitive", "node", "rows", "dep_rows", "av", "stair",
    )

    #: Slots copied verbatim by :meth:`bind` (everything except the
    #: availability-dependent pair set by the bind itself).
    _SHARED_SLOTS = (
        "name", "kind", "row", "pred_rows", "release", "wcet",
        "own_sensitive", "node", "rows", "dep_rows",
    )

    def __init__(self, name, row, pred_rows, plan, node, name_idx):
        self.name = name
        self.kind = "fps"
        self.row = row
        self.pred_rows = pred_rows
        self.release = plan.release
        self.wcet = plan.wcet
        self.own_sensitive = plan.own_sensitive
        self.node = node
        # Interferer rows as (period, wcet, is_ancestor, jitter_row) int
        # tuples (ancestor rows: placeholder jitter row 0, as for DYN).
        self.rows = tuple(
            (r[1], r[3], int(r[2]), 0 if r[2] else name_idx[r[0]])
            for r in plan.interferers
        )
        self.dep_rows = ()

    def bind(self, availability) -> "FpsActPlan":
        """A shallow copy bound to one group's availability pattern.

        The interferer rows are shared; only the availability pair is
        per group.  The compiled staircase kernel mirrors the Python
        fast path, whose guard is ``gap_ends is not None and slack > 0
        and wcet > 0`` (idle patterns lowered as the identity
        staircase); anything else makes the group structurally unsafe.
        """
        bound = object.__new__(FpsActPlan)
        for slot in self._SHARED_SLOTS:
            setattr(bound, slot, getattr(self, slot))
        bound.av = availability_arrays(availability)
        bound.stair = bound.av.stair and bound.wcet > 0
        return bound


class StructureTemplate:
    """The structure-key-invariant share of a :class:`GroupPlan`.

    Everything lowered here reads only tier-(a)/(c) invariants (system
    structure, FrameID assignment, bus-speed parameters) plus the
    static-name *order* (part of the cache key, defensively) -- never
    the schedule itself.  Cached once per structure key on the context
    (``_structure_template``), so an ST-heavy sweep's singleton groups
    pay the activity lowering exactly once instead of once per cycle
    length.
    """

    __slots__ = (
        "names", "name_idx", "n_rows", "activities", "wcrt_names",
        "wcrt_rows", "fault_rows", "native_acts",
    )

    def __init__(self, ctx, config, static_names: Tuple[str, ...]):
        views = ctx._dyn_views(config)

        # --- activity/name index ------------------------------------
        # Rows: static activities first (read-only), then DYN messages
        # (view order), then FPS tasks (node order) -- the slot layout of
        # the Python fix point.  Any referenced name outside those sets
        # (defensive: senders/predecessors are always covered) gets a
        # zero row, mirroring ``wcrt.get(name, 0)``.
        names: List[str] = list(static_names)
        name_idx: Dict[str, int] = {n: i for i, n in enumerate(names)}

        def _row(name: str) -> int:
            i = name_idx.get(name)
            if i is None:
                i = len(names)
                names.append(name)
                name_idx[name] = i
            return i

        fps_items = [
            (plan, node)
            for node in ctx.system.nodes
            for plan in ctx.fps_plans[node]
        ]
        for view in views:
            _row(view.name)
        for plan, _ in fps_items:
            _row(plan.name)
        for view in views:
            _row(ctx.sender_task[view.name])
        for plan, _ in fps_items:
            for pred in plan.predecessors:
                _row(pred)

        # --- activity plans -----------------------------------------
        # Built in the slot layout (DYN messages in view order, then FPS
        # tasks in node order), then put into the context's evaluation
        # order: the kernel walks ``activities`` in array order, so it
        # runs the Python fix point's precedence-ordered passes.
        structure = ctx._dyn_structure(config)
        _, _, largest_of_sender = ctx._ct_tables(config)
        slots = []
        for view in views:
            slots.append(
                DynActPlan(
                    view.name,
                    name_idx[view.name],
                    name_idx[ctx.sender_task[view.name]],
                    view,
                    name_idx,
                    structure[view.name][0],
                    largest_of_sender[view.name],
                )
            )
        for plan, node in fps_items:
            slots.append(
                FpsActPlan(
                    plan.name,
                    name_idx[plan.name],
                    tuple(name_idx[p] for p in plan.predecessors),
                    plan,
                    node,
                    name_idx,
                )
            )
        activities = [slots[i] for i in ctx._eval_order]
        act_pos = {a.name: pos for pos, a in enumerate(activities)}
        for name, deps in ctx._dependents(config).items():
            pos = act_pos.get(name)
            if pos is not None:
                activities[pos].dep_rows = tuple(act_pos[d] for d in deps)

        self.names = names
        self.name_idx = name_idx
        self.n_rows = len(names)
        self.activities = activities
        # wcrt assembly order: the Python fix point's result order
        # (static entries, then the slot layout), so the assembled dicts
        # match it item for item.
        self.wcrt_names = list(static_names) + list(ctx._slot_names)
        self.wcrt_rows = tuple(name_idx[n] for n in self.wcrt_names)
        # Static rows the k-error hypothesis inflates (``_fix_point``'s
        # ``_fault_static_names & wcrt`` intersection as row indices --
        # the bumps are independent per row, so iteration order is
        # irrelevant).  Lowered unconditionally: the rows are a group
        # invariant whether or not the batch carries a hypothesis.
        self.fault_rows = tuple(
            name_idx[n] for n in static_names if n in ctx._fault_static_names
        )
        #: Lazily built per-activity section of the plan blob
        #: (structure-invariant, see
        #: ``repro.analysis.backend.native.plan_blob``); ``None`` until
        #: the first group of this structure is dispatched to C.
        self.native_acts = None


class GroupPlan:
    """All group-invariant state of one batched fix point.

    Built once per (schedule key, DYN structure key) and cached on the
    context.  Construction is deliberately thin: the activity lowering
    comes from the shared :class:`StructureTemplate` (FPS activities
    bound to this group's availability patterns, DYN activities shared
    outright -- they carry no schedule-dependent state); only ``w0``
    and the availability bindings are built here.
    """

    __slots__ = (
        "template", "arts", "activities", "w0", "stair",
        "native_state",
    )

    def __init__(self, ctx, config, arts):
        template = ctx._structure_template(config, tuple(arts.static_wcrt))
        self.template = template
        #: The group's schedule artifacts, fetched once by the caller:
        #: the kernels and the oracle delegation read them from here
        #: instead of re-fetching (a batch wider than the schedule cache
        #: would replay them again).
        self.arts = arts
        self.activities = [
            act if act.kind == "dyn" else act.bind(arts.availability[act.node])
            for act in template.activities
        ]
        w0 = [0] * template.n_rows
        name_idx = template.name_idx
        for name, value in arts.static_wcrt.items():
            w0[name_idx[name]] = value
        self.w0 = w0
        #: Structural safety verdict: every FPS activity is on the
        #: staircase fast path.  Group-invariant; ``False`` sends every
        #: batch of this group to the Python oracle.
        self.stair = all(
            act.stair for act in self.activities if act.kind == "fps"
        )
        #: The parsed C plan capsule; ``None`` until the first batch of
        #: this group reaches the C kernels.
        self.native_state = None

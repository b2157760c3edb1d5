"""Once-per-group lowering for the compiled backend.

A *group* is a set of candidate configurations sharing both the
schedule key (identical static schedule, availability patterns and
static response times) and the DYN structure key (identical FrameID
assignment and bus-speed parameters, hence identical hp/lf interference
rows and transmission times).  The lowering follows that split:

* :class:`StructureTemplate` lowers the context's structure record
  (``AnalysisContext._structure``) once per structure key: the plan
  blob's per-activity int section, the nodes whose availability
  patterns the FPS activities index, and the FPS wcet guard;
* :class:`GroupPlan` adds the per-schedule rest: ``w0`` (the static
  response times), the availability staircase tables and the staircase
  verdict.

The per-lane scalars (caps, cycle geometry) are resolved per batch by
:func:`repro.analysis.backend.native.run_group_native`, which packs the
plan into the int64 blob the C kernels parse.  A pure-DYN sweep is one
group end to end; an ST-heavy sweep is a fresh *singleton* group per
cycle length, all sharing one template, so each group costs only its
``w0`` and availability tables.
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
        tables = availability.instant_advance_tables()
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


class StructureTemplate:
    """The structure-key-invariant share of a :class:`GroupPlan`.

    Lowered from one structure record of the context
    (``AnalysisContext._structure``: FrameID assignment and bus speed)
    and cached on that record, so an ST-heavy sweep's singleton groups
    pay the activity lowering once per FrameID assignment instead of
    once per cycle length.  Nothing here reads the schedule; the
    static-name order that leads the row layout follows the bus-speed
    ``SchedulePlan`` (replay inserts static entries in plan order),
    which the structure key already fixes.

    The lowering yields four things: ``acts``, the plan blob's
    per-activity int section, and ``comps``, its component section (see
    :func:`repro.analysis.backend.native.plan_blob`); ``av_nodes``, the
    nodes whose availability patterns the FPS activities index (first
    occurrence in evaluation order); and ``wcet_positive``, whether
    every FPS wcet is positive (the staircase kernel's one
    structure-side guard).
    """

    __slots__ = (
        "static_names", "name_idx", "n_rows", "n_acts", "acts", "n_comps",
        "comps", "av_nodes", "wcet_positive", "wcrt_names", "wcrt_rows",
        "fault_rows",
    )

    def __init__(self, ctx, structure, static_names: Tuple[str, ...]):
        # --- activity/name index ------------------------------------
        # Rows: static activities first (read-only), then DYN messages,
        # then FPS tasks (node order) -- the slot layout of the Python
        # fix point.  Any referenced name outside those sets (defensive:
        # senders/predecessors are always covered) gets a zero row,
        # mirroring ``wcrt.get(name, 0)``.
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
        for msg in structure.messages:
            _row(msg.name)
        for plan, _ in fps_items:
            _row(plan.name)
        for msg in structure.messages:
            _row(msg.sender)
        for plan, _ in fps_items:
            for pred in plan.predecessors:
                _row(pred)

        # --- the per-activity section ---------------------------------
        # Activities in the structure record's schedule order, one
        # component after the other: the kernel walks the components'
        # ``(start, end, cyclic)`` slices of the blob order exactly as
        # the Python fix point walks its schedule.  Interferer rows carry
        # the jitter row they read; ancestor rows read the own jitter, so
        # theirs is a placeholder 0.
        slots = [(msg, None) for msg in structure.messages] + fps_items
        order = [slots[i] for i in structure.order]
        act_pos = {act.name: pos for pos, (act, _) in enumerate(order)}
        deps_get = structure.dependents.get
        av_nodes: List[str] = []
        acts: List[int] = []
        for act, node in order:
            deps = deps_get(act.name, ())
            acts += [
                0 if node is None else 1,
                name_idx[act.name],
                int(act.own_sensitive),
                len(deps),
            ]
            acts += [act_pos[d] for d in deps]
            if node is None:
                # Under the "bound" fill strategy lf rows with adjusted
                # size <= 0 add nothing to ``lf_total`` or ``lf_useful``,
                # so they are dropped (``max_adjusted`` still covers
                # every lf row, as the k-error cost in the oracle does).
                lf_rows = [r for r in act.lf_info if r[3] > 0]
                acts += [
                    name_idx[act.sender],
                    act.ct,
                    act.lower_slots,
                    act.frame_id,
                    act.largest,
                    act.max_adjusted,
                    len(act.hp_info),
                    len(lf_rows),
                ]
                for name, period, anc in act.hp_info:
                    acts += [period, int(anc), 0 if anc else name_idx[name]]
                for name, period, anc, adjusted in lf_rows:
                    acts += [
                        period, int(anc), 0 if anc else name_idx[name],
                        adjusted,
                    ]
            else:
                if node not in av_nodes:
                    av_nodes.append(node)
                acts += [
                    act.release,
                    act.wcet,
                    av_nodes.index(node),
                    len(act.predecessors),
                    len(act.interferers),
                ]
                acts += [name_idx[p] for p in act.predecessors]
                for name, period, anc, wcet in act.interferers:
                    acts += [
                        period, wcet, int(anc), 0 if anc else name_idx[name],
                    ]

        self.static_names = static_names
        self.name_idx = name_idx
        self.n_rows = len(names)
        self.n_acts = len(order)
        self.acts = acts
        self.n_comps = len(structure.components)
        self.comps = [x for comp in structure.components for x in comp]
        self.av_nodes = tuple(av_nodes)
        self.wcet_positive = all(plan.wcet > 0 for plan, _ in fps_items)
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


class GroupPlan:
    """All group-invariant state of one batched fix point.

    Built once per (schedule key, DYN structure key) and cached on the
    context.  The activity lowering is the structure record's shared
    :class:`StructureTemplate` (built here on the record's first
    group); only ``w0``, the availability tables and the staircase
    verdict are per group.
    """

    __slots__ = ("template", "arts", "w0", "avs", "stair", "native_state")

    def __init__(self, ctx, config, arts):
        structure = ctx._structure(config)
        template = structure.template
        if template is None:
            template = StructureTemplate(
                ctx, structure, tuple(arts.static_wcrt)
            )
            structure.template = template
        self.template = template
        #: The group's schedule artifacts, fetched once by the caller:
        #: the kernels and the oracle delegation read them from here
        #: instead of re-fetching (a batch wider than the schedule cache
        #: would replay them again).
        self.arts = arts
        w0 = [0] * template.n_rows
        name_idx = template.name_idx
        for name, value in arts.static_wcrt.items():
            w0[name_idx[name]] = value
        self.w0 = w0
        #: The availability tables of ``template.av_nodes``, in order.
        self.avs = [
            availability_arrays(arts.availability[node])
            for node in template.av_nodes
        ]
        #: Structural safety verdict: every FPS activity is on the
        #: staircase fast path, whose Python guard is ``gap_ends is not
        #: None and slack > 0 and wcet > 0`` (idle patterns lowered as
        #: the identity staircase).  ``False`` sends every batch of this
        #: group to the Python oracle.
        self.stair = template.wcet_positive and all(
            av.stair for av in self.avs
        )
        #: The parsed C plan capsule; ``None`` until the first batch of
        #: this group reaches the C kernels.
        self.native_state = None

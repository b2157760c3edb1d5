"""Once-per-group array lowering for the numpy backend.

A *group* is a set of candidate configurations sharing both the
schedule key (identical static schedule, availability patterns and
static response times) and the DYN structure key (identical FrameID
assignment and bus-speed parameters, hence identical hp/lf interference
rows and transmission times).  Everything that is invariant across such
a group -- activity indices, interferer rows as packed int64 arrays,
availability staircase tables, the reverse interference map -- is
lowered here exactly once and cached on the owning
:class:`~repro.analysis.context.AnalysisContext`; the per-lane scalars
(caps, ``lam``/``theta``/``sigma``/``gd_cycle`` of each DYN view) are
cheap and resolved per batch by
:func:`repro.analysis.backend.kernels.run_group`.

A pure-DYN sweep is one group end to end (every candidate shares the
schedule and the FrameID assignment), which is exactly the workload the
batched kernels are built for.  An ST-heavy sweep degenerates to
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

from repro.analysis.backend import numpy_or_none
from repro.core.cost import cost_order

#: Magnitude prebound of the array kernels.  Every worst-case
#: intermediate of an activity's vectorized fix point is bounded in
#: unbounded Python arithmetic before the first numpy op; any activity
#: whose bound reaches this limit (comfortably inside int64, leaving
#: headroom for one addition) is evaluated on the Python kernels
#: instead.  numpy int64 overflow wraps silently -- the prebound is what
#: makes "exact integer dtypes" a guarantee instead of a hope.
OVERFLOW_LIMIT = 1 << 62


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class AvailabilityArrays:
    """Packed staircase tables of one ``NodeAvailability`` pattern.

    ``stair`` is True for every pattern the vectorized FPS kernel
    handles: a non-degenerate pattern (some busy time, some slack) uses
    the divmod/bisect staircase over the precomputed
    ``gap_ends``/``slack_through`` prefix sums, and a fully *idle* node
    (``advance(t0, d) = t0 + d``) is lowered as the equivalent synthetic
    one-gap staircase (``before = 0``, ``slack = period``,
    ``gap_ends = through = [period]``, so the staircase collapses to
    ``window = demand`` -- exactly the Python generic path's result).
    Only fully busy nodes (zero slack, ``advance`` returns ``None``)
    keep ``stair`` False and take the per-lane Python fallback.
    """

    __slots__ = (
        "stair", "instants", "before", "slack", "period", "gap_ends",
        "through", "eval_order", "n_instants", "before_max",
    )

    def __init__(self, availability):
        np = numpy_or_none()
        tables = availability.instant_advance_tables(False)
        self.slack = tables.slack_per_period
        self.period = tables.period
        self.n_instants = len(tables.instants)
        self.stair = self.slack > 0
        self.instants = np.asarray(tables.instants, dtype=np.int64)
        self.eval_order = np.asarray(tables.eval_order, dtype=np.int64)
        if not self.stair:
            self.before = None
            self.gap_ends = None
            self.through = None
            self.before_max = 0
        elif tables.gap_ends is not None:
            self.before = np.asarray(tables.slack_before, dtype=np.int64)
            self.gap_ends = np.asarray(tables.gap_ends, dtype=np.int64)
            self.through = np.asarray(tables.slack_through, dtype=np.int64)
            self.before_max = max(tables.slack_before)
        else:  # fully idle: the synthetic identity staircase
            self.before = np.zeros(self.n_instants, dtype=np.int64)
            self.gap_ends = np.asarray([self.period], dtype=np.int64)
            self.through = np.asarray([self.period], dtype=np.int64)
            self.before_max = 0


def availability_arrays(availability) -> AvailabilityArrays:
    """Per-pattern arrays, cached on the availability instance.

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
        "name", "kind", "pos", "row", "sender_row", "own_sensitive", "ct",
        "lower_slots", "dyn_index", "dep_rows", "frame_id", "largest",
        "n_hp", "all_p", "all_anc", "all_jrow", "lf_adj", "weights",
        "all_pm1", "p_max", "has_anc", "hp_rows_py", "lf_rows_py",
        "max_adjusted",
    )

    def __init__(self, np, name, pos, row, sender_row, view, name_idx,
                 frame_id, largest):
        self.name = name
        self.kind = "dyn"
        self.pos = pos
        self.row = row
        self.sender_row = sender_row
        self.own_sensitive = view.own_sensitive
        self.ct = view.ct
        self.lower_slots = view.lower_slots
        self.dyn_index = pos  # DYN acts come first, in dyn_messages order
        self.dep_rows = None
        # The message's FrameID and its sender node's largest DYN frame:
        # with these two group-invariant ints the per-lane view scalars
        # (``lam``/``theta``/``sigma``/``sendable``) are pure arithmetic
        # in the lane's ``n_minislots``/``gd_cycle``, so the batched
        # kernel never has to materialise per-lane ``_DynView`` objects.
        self.frame_id = frame_id
        self.largest = largest
        hp = view.hp_info
        # Under the "bound" fill strategy, lf rows with adjusted size <= 0
        # contribute to neither ``lf_total`` nor ``lf_useful`` -- they are
        # dropped at lowering, which is exact (the Python loop adds
        # nothing for them either).  The surviving lf rows are packed
        # *behind* the hp rows into one combined matrix, so the kernel
        # gathers and ceils once per round and splits at ``n_hp``.
        lf = [r for r in view.lf_info if r[3] > 0]
        rows = list(hp) + lf
        self.n_hp = len(hp)
        # The k-error per-error cycle cost depends on the largest lf
        # adjusted size (``_dyn_views``: max over *all* lf rows, default
        # 0 -- but ``per_error`` is 1 whenever that max is <= 0, so the
        # exact Python value is preserved even though rows with
        # adjusted <= 0 are dropped from the packed matrices below).
        self.max_adjusted = max((r[3] for r in view.lf_info), default=0)
        self.all_p = np.asarray(
            [r[1] for r in rows], dtype=np.int64
        ).reshape(-1, 1)
        self.all_anc = np.asarray(
            [r[2] for r in rows], dtype=bool
        ).reshape(-1, 1)
        self.all_jrow = np.asarray(
            [name_idx[r[0]] if not r[2] else 0 for r in rows],
            dtype=np.int64,
        )
        self.lf_adj = np.asarray(
            [r[3] for r in lf], dtype=np.int64
        ).reshape(-1, 1)
        # One (3, R) weight matrix turns the three per-round column sums
        # (hp activation count, lf adjusted total, lf useful count) into
        # a single integer matmul against the counts matrix.
        nh, nf = len(hp), len(lf)
        weights = np.zeros((3, nh + nf), dtype=np.int64)
        weights[0, :nh] = 1
        weights[1, nh:] = [r[3] for r in lf]
        weights[2, nh:] = 1
        self.weights = weights
        # Ceil-division fusion: ceil(s / p) == (s + p - 1) // p for
        # p > 0, so presumming ``p - 1`` into the frozen jitter matrix
        # saves two array ops per fix-point round.  ``p_max`` feeds the
        # overflow guard (the fused numerator grows by at most p - 1).
        self.all_pm1 = self.all_p - 1
        self.p_max = int(self.all_p.max()) if rows else 0
        self.has_anc = bool(any(r[2] for r in rows))
        self.hp_rows_py = tuple((int(r[1]), bool(r[2])) for r in hp)
        self.lf_rows_py = tuple(
            (int(r[1]), bool(r[2]), int(r[3])) for r in lf
        )

    def overflow_safe(self, cap_max, jitter_bound, gd_max, sigma_max,
                      st_bus_max, lam_max, ms_len, extra_max=0) -> bool:
        """Prebound every int64 intermediate in unbounded Python ints.

        The window ``t`` never exceeds the cap (capped trajectories
        return before advancing) and every jitter is bounded by
        ``jitter_bound``, so per-row activation counts are bounded by
        ``ceil((cap + J) / period)``; the rest follows Eq. (3) termwise.
        ``extra_max`` bounds the constant k-error ``extra_cycles`` term
        charged per round (0 without a fault hypothesis).
        """
        s_max = cap_max + jitter_bound
        hp_max = sum(_ceil_div(s_max, p) for p, _ in self.hp_rows_py)
        lf_max = sum(
            adj * _ceil_div(s_max, p) for p, _, adj in self.lf_rows_py
        )
        w_max = (
            sigma_max
            + (hp_max + lf_max + extra_max) * gd_max
            + st_bus_max
            + (self.lower_slots + lf_max + lam_max) * ms_len
        )
        return (
            s_max + self.p_max < OVERFLOW_LIMIT
            and lf_max < OVERFLOW_LIMIT
            and w_max < OVERFLOW_LIMIT
        )


class FpsActPlan:
    """Structure-invariant lowering of one FPS task's busy-window
    maximisation.  Template instances (built once per structure key)
    leave the schedule-dependent slots unset; :meth:`bind` attaches a
    concrete availability pattern for one group."""

    __slots__ = (
        "name", "kind", "pos", "row", "pred_rows", "release", "wcet",
        "own_sensitive", "plan", "node", "availability", "av", "stair",
        "r_p", "r_c", "r_anc", "r_jrow", "r_p_col", "r_pm1_col", "p_max",
        "has_anc", "rows_py", "dep_rows",
    )

    #: Slots copied verbatim by :meth:`bind` (everything except the
    #: availability-dependent triple set by the bind itself).
    _SHARED_SLOTS = (
        "name", "kind", "pos", "row", "pred_rows", "release", "wcet",
        "own_sensitive", "plan", "node",
        "r_p", "r_c", "r_anc", "r_jrow", "r_p_col", "r_pm1_col", "p_max",
        "has_anc", "rows_py", "dep_rows",
    )

    def __init__(self, np, name, pos, row, pred_rows, plan, node, name_idx):
        self.name = name
        self.kind = "fps"
        self.pos = pos
        self.row = row
        self.pred_rows = pred_rows
        self.release = plan.release
        self.wcet = plan.wcet
        self.own_sensitive = plan.own_sensitive
        self.plan = plan
        self.node = node
        info = plan.interferers
        self.r_p = np.asarray([r[1] for r in info], dtype=np.int64)
        self.r_c = np.asarray([r[3] for r in info], dtype=np.int64)
        self.r_anc = np.asarray([r[2] for r in info], dtype=bool)
        self.r_jrow = np.asarray(
            [name_idx[r[0]] if not r[2] else 0 for r in info],
            dtype=np.int64,
        )
        # Column forms plus the ceil-division fusion margin (see
        # :class:`DynActPlan`): ceil(s / p) == (s + p - 1) // p.
        self.r_p_col = self.r_p[:, None]
        self.r_pm1_col = self.r_p_col - 1
        self.p_max = int(self.r_p.max()) if len(info) else 0
        self.has_anc = bool(any(r[2] for r in info))
        self.rows_py = tuple((int(r[1]), int(r[3])) for r in info)
        self.dep_rows = None

    def bind(self, availability) -> "FpsActPlan":
        """A shallow copy bound to one group's availability pattern.

        The packed interferer arrays are shared (never mutated at run
        time); only the availability triple is per group.  The
        vectorized staircase kernel mirrors the Python fast path, whose
        guard is ``gap_ends is not None and slack > 0 and wcet > 0``;
        everything else runs the per-lane Python fallback.
        """
        bound = object.__new__(FpsActPlan)
        for slot in self._SHARED_SLOTS:
            setattr(bound, slot, getattr(self, slot))
        bound.availability = availability
        bound.av = availability_arrays(availability)
        bound.stair = bound.av.stair and bound.wcet > 0
        return bound

    def overflow_safe(self, cap_max, jitter_bound) -> bool:
        """Prebound the staircase and demand arithmetic in Python ints."""
        s_max = cap_max + jitter_bound
        demand_max = self.wcet + sum(
            c * _ceil_div(s_max, p) for p, c in self.rows_py
        )
        av = self.av
        if not self.stair:
            return True  # Python fallback anyway
        stair_in = av.before_max + demand_max
        window_max = (stair_in // av.slack + 1) * av.period + av.period
        return (
            s_max + self.p_max < OVERFLOW_LIMIT
            and demand_max < OVERFLOW_LIMIT
            and window_max < OVERFLOW_LIMIT
        )


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
        "wcrt_rows", "cost_rows", "deadlines", "deadline_abs_max",
        "fault_rows", "release_max", "native_acts",
    )

    def __init__(self, ctx, config, static_names: Tuple[str, ...]):
        np = numpy_or_none()
        views = ctx._dyn_views(config)

        # --- activity/name index ------------------------------------
        # Rows: static activities first (read-only), then DYN messages
        # (view order), then FPS tasks (node order) -- the Gauss-Seidel
        # evaluation order of the Python fix point.  Any referenced name
        # outside those sets (defensive: senders/predecessors are always
        # covered) gets a zero row, mirroring ``wcrt.get(name, 0)``.
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
        structure = ctx._dyn_structure(config)
        _, _, largest_of_sender = ctx._ct_tables(config)
        activities = []
        for view in views:
            activities.append(
                DynActPlan(
                    np,
                    view.name,
                    len(activities),
                    name_idx[view.name],
                    name_idx[ctx.sender_task[view.name]],
                    view,
                    name_idx,
                    structure[view.name][0],
                    largest_of_sender[view.name],
                )
            )
        for plan, node in fps_items:
            activities.append(
                FpsActPlan(
                    np,
                    plan.name,
                    len(activities),
                    name_idx[plan.name],
                    tuple(name_idx[p] for p in plan.predecessors),
                    plan,
                    node,
                    name_idx,
                )
            )
        act_pos = {a.name: a.pos for a in activities}
        for name, deps in ctx._dependents(config).items():
            pos = act_pos.get(name)
            if pos is not None:
                activities[pos].dep_rows = np.asarray(
                    [act_pos[d] for d in deps], dtype=np.int64
                )

        self.names = names
        self.name_idx = name_idx
        self.n_rows = len(names)
        self.activities = activities
        # wcrt assembly order: the Python fix point's exact dict
        # insertion order (static entries, then first-pass activity
        # writes), so verify-mode item-tuple signatures match.
        self.wcrt_names = list(static_names) + [
            a.name for a in activities
        ]
        self.wcrt_rows = np.asarray(
            [name_idx[n] for n in self.wcrt_names], dtype=np.int64
        )
        # Cost lowering (Eq. (5)): rows and deadlines in the exact
        # iteration order of ``cost_function``.  A graph activity with
        # no response-time row would raise in the Python path; leave
        # ``cost_rows`` unset so the kernel falls back to it.
        order = cost_order(ctx.app)
        if all(n in name_idx for n, _ in order):
            self.cost_rows = np.asarray(
                [name_idx[n] for n, _ in order], dtype=np.int64
            )
            deadlines = [d for _, d in order]
            self.deadlines = np.asarray(deadlines, dtype=np.int64)
            self.deadline_abs_max = max(
                (abs(d) for d in deadlines), default=0
            )
        else:
            self.cost_rows = None
            self.deadlines = None
            self.deadline_abs_max = 0
        self.release_max = max(
            (a.release for a in activities if a.kind == "fps"), default=0
        )
        # Static rows the k-error hypothesis inflates (``_fix_point``'s
        # ``_fault_static_names & wcrt`` intersection as row indices --
        # the bumps are independent per row, so iteration order is
        # irrelevant).  Lowered unconditionally: the rows are a group
        # invariant whether or not the batch carries a hypothesis.
        self.fault_rows = np.asarray(
            [
                name_idx[n]
                for n in static_names
                if n in ctx._fault_static_names
            ],
            dtype=np.int64,
        )
        #: Lazily built per-activity section of the compiled backend's
        #: plan blob (structure-invariant, see
        #: ``repro.analysis.backend.native.plan_blob``); ``None`` until
        #: the first ``backend="native"`` group serializes it.
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
        "template", "arts", "names", "name_idx", "w0",
        "static_max", "release_max", "activities", "n_rows",
        "wcrt_names", "wcrt_rows", "cost_rows",
        "deadlines", "deadline_abs_max", "fault_rows", "native_state",
    )

    def __init__(self, ctx, config, arts):
        np = numpy_or_none()
        template = ctx._structure_template(config, tuple(arts.static_wcrt))
        self.template = template
        #: The group's schedule artifacts, fetched once by the caller:
        #: the kernels read them from here instead of re-fetching (a
        #: batch wider than the schedule cache would replay them again).
        self.arts = arts
        self.names = template.names
        self.name_idx = template.name_idx
        self.n_rows = template.n_rows
        self.wcrt_names = template.wcrt_names
        self.wcrt_rows = template.wcrt_rows
        self.cost_rows = template.cost_rows
        self.deadlines = template.deadlines
        self.deadline_abs_max = template.deadline_abs_max
        self.fault_rows = template.fault_rows
        self.release_max = template.release_max
        self.activities = [
            act if act.kind == "dyn" else act.bind(arts.availability[act.node])
            for act in template.activities
        ]
        w0 = np.zeros(self.n_rows, dtype=np.int64)
        name_idx = template.name_idx
        for name, value in arts.static_wcrt.items():
            w0[name_idx[name]] = value
        self.w0 = w0
        self.static_max = max(arts.static_wcrt.values(), default=0)
        #: Lazily built state of the compiled backend (the parsed plan
        #: capsule plus its structural safety flags); ``None`` until the
        #: first ``backend="native"`` batch touches this group.
        self.native_state = None

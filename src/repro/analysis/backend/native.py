"""Dispatch shim of the compiled backend (``backend="native"``).

:func:`run_group_native` analyses one group of candidates: the
:class:`~repro.analysis.backend.arrays.GroupPlan` lowering goes in, and
the results come out through the Python path's own tail
(``AnalysisContext._result``: Eq. (5) on the wcrt dict, the cached
schedule retimed) -- but the fix points in between run inside the
``repro._native`` C extension, each lane's *entire* holistic fix point
(the same component schedule the oracle walks) in tight scalar loops
with no per-step dispatch
(see ``src/repro/_native/nativemodule.c`` for the transcription and its
bit-identity argument).  Every buffer crossing into C is a stdlib
``array('q')``.

The C kernel is the only module that knows its own arithmetic: every
``+``, ``-`` and ``*`` on a lane-derived value is a checked int64
operation, and a lane whose exact value would leave int64 stops and
reports ``conv = -1``.  The shim keeps two gates around it:

* **structural**: every availability pattern must have slack (a fully
  busy node has no staircase to run); the verdict is group-invariant
  and cached as ``GroupPlan.stair``, and a failing group runs on the
  oracle.
* **packing**: ``array('q')`` and the ``"L"`` argument format raise
  :class:`OverflowError` exactly when an input (a cap, a static
  response time, a release, ``fault_k``, the iteration budget) falls
  outside int64; the group then runs on the oracle.

Delegated lanes -- a failing group, or a single overflowed lane -- come
back as ``None``, and the context analyses them with the Python oracle
on the schedule artifacts the plan already carries: bit-identical by
definition, and no schedule is replayed twice.  Every other lane
computed exactly the integers Python's unbounded ints would, so its
result is bit-identical too.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.analysis.backend import native_or_none

#: Blob header magic ("NATIW"); bumped whenever the layout changes, so
#: a stale extension rejects new blobs instead of misreading them.
PLAN_MAGIC = 0x4E41544957


def plan_blob(plan) -> array:
    """Serialize *plan* into the flat int64 blob ``build_plan`` parses.

    Layout (every field one int64, in order)::

        MAGIC, n_rows, n_acts, n_comps, n_avs, n_fault
        w0[n_rows]
        fault_rows[n_fault]
        per component (schedule order; the slices tile [0, n_acts)):
            start, end, cyclic
        per availability pattern:
            n_instants, slack, period, n_gaps,
            instants[n_instants], before[n_instants],
            gap_ends[n_gaps], through[n_gaps], eval_order[n_instants]
        per activity (plan order == the fix point's schedule order):
            kind (0=dyn, 1=fps), row, own_sensitive, n_deps, deps...
            dyn:  sender_row, ct, lower_slots, frame_id, largest,
                  max_adjusted, n_hp, n_lf,
                  n_hp x (period, is_ancestor, jitter_row),
                  n_lf x (period, is_ancestor, jitter_row, adjusted)
            fps:  release, wcet, av_index, n_preds, n_int, preds...,
                  n_int x (period, wcet, is_ancestor, jitter_row)

    The availability tables are the patterns' own
    :class:`~repro.analysis.availability.InstantTables` (an idle node is
    the one-gap staircase); only structurally safe groups, whose every
    pattern has slack, are packed.

    The component and per-activity sections are
    **structure-invariant** (the component schedule, interferer rows,
    FrameIDs, transmission times; the availability references are by
    index into the record's ``av_nodes``), so they are packed once per
    structure record (``StructureTemplate.comps`` and ``.acts``, the
    latter kept as an ``array('q')`` after its first blob); only the
    header, ``w0``, the fault rows and the availability tables are per
    group.
    """
    template = plan.template
    out = [
        PLAN_MAGIC,
        template.n_rows,
        template.n_acts,
        template.n_comps,
        len(plan.avs),
        len(template.fault_rows),
    ]
    out += plan.w0
    out += template.fault_rows
    out += template.comps
    for av in plan.avs:
        out += [len(av.instants), av.slack_per_period, av.period,
                len(av.gap_ends)]
        out += av.instants
        out += av.slack_before
        out += av.gap_ends
        out += av.slack_through
        out += av.eval_order
    acts = template.packed_acts
    if acts is None:
        # Raises OverflowError, as the rest of the blob does, while an
        # input is outside int64.
        acts = template.packed_acts = array("q", template.acts)
    blob = array("q", out)
    blob += acts
    return blob


def run_group_native(ctx, plan, lanes, ms_len) -> List:
    """Run one group's lanes on the C kernels.

    Every lane ``(n_minislots, gd_cycle, st_bus)`` shares *plan*'s
    schedule and structure keys (the caller groups them; *ms_len* is
    the structure key's minislot length).  Returns per lane ``(wcrt,
    converged)`` -- the response times in result order
    (``plan.structure.names``) -- or ``None`` for a lane the Python
    oracle must analyse: every lane of a structurally unsafe group or
    of one with an input outside int64, and a lane that overflowed
    int64 in the kernel.
    """
    if not plan.stair:
        return [None] * len(lanes)
    options = ctx.options
    native = native_or_none()
    n_rows = plan.template.n_rows
    L = len(lanes)
    # Lane-major response-time buffer: each lane's fix point works on
    # one contiguous row of ``n_rows`` entries.
    W = array("q", [0]) * (L * n_rows)
    conv = array("q", [0]) * L
    try:
        if plan.native_state is None:
            plan.native_state = native.build_plan(plan_blob(plan).tobytes())
        native.run_batch(
            plan.native_state,
            array("q", [ctx._cap(gd_cycle) for _, gd_cycle, _ in lanes]),
            array("q", [n for n, _, _ in lanes]),
            array("q", [gd_cycle for _, gd_cycle, _ in lanes]),
            array("q", [st_bus for _, _, st_bus in lanes]),
            ms_len,
            ctx._fault_k,
            options.max_holistic_iterations,
            W,
            conv,
        )
    except OverflowError:  # an input outside int64
        return [None] * L
    # The result's rows lead the row layout, in the oracle's item order.
    n_names = len(plan.structure.names)
    return [
        None if conv[lane] < 0  # the lane overflowed int64
        else (W[lane * n_rows:lane * n_rows + n_names].tolist(), conv[lane] == 1)
        for lane in range(L)
    ]

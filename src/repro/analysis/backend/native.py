"""Dispatch shim of the compiled backend (``backend="native"``).

:func:`run_group_native` analyses one group of candidates: the
:class:`~repro.analysis.backend.arrays.GroupPlan` lowering goes in, and
the results come out through the Python path's own tail
(``AnalysisContext._result``: Eq. (5) on the wcrt dict, the cached
schedule retimed) -- but the fix points in between run inside the
``repro._native`` C extension, each lane's *entire* holistic
Gauss-Seidel iteration in tight scalar loops with no per-step dispatch
(see ``src/repro/_native/nativemodule.c`` for the transcription and its
bit-identity argument).  Every buffer crossing into C is a stdlib
``array('q')``.

The C kernel is the only module that knows its own arithmetic: every
``+``, ``-`` and ``*`` on a lane-derived value is a checked int64
operation, and a lane whose exact value would leave int64 stops and
reports ``conv = -1``.  The shim keeps two gates around it:

* **structural**: every FPS activity must be on the staircase fast path
  (a non-degenerate or fully idle availability pattern and a positive
  wcet); the verdict is group-invariant and cached as
  ``GroupPlan.stair``, and a failing group runs on the oracle.
* **packing**: ``array('q')`` and the ``"L"`` argument format raise
  :class:`OverflowError` exactly when an input (a cap, a static
  response time, a release, ``fault_k``, the iteration budget) falls
  outside int64; the group then runs on the oracle.

Delegated candidates -- a failing group, or a single overflowed lane --
are analysed by the Python oracle on the schedule artifacts the plan
already carries (``AnalysisContext._analyse_fetched``): bit-identical by
definition, and no schedule is replayed twice.  Every other lane
computed exactly the integers Python's unbounded ints would, so its
result is bit-identical too.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.analysis.backend import native_or_none

#: Blob header magic ("NATIV"); bumped if the layout ever changes, so a
#: stale extension rejects new blobs instead of misreading them.
PLAN_MAGIC = 0x4E41544956


def plan_blob(plan) -> array:
    """Serialize *plan* into the flat int64 blob ``build_plan`` parses.

    Layout (every field one int64, in order)::

        MAGIC, n_rows, n_acts, n_avs, n_fault
        w0[n_rows]
        fault_rows[n_fault]
        per availability pattern:
            n_instants, slack, period, n_gaps,
            instants[n_instants], before[n_instants],
            gap_ends[n_gaps], through[n_gaps], eval_order[n_instants]
        per activity (plan order == the fix point's precedence order):
            kind (0=dyn, 1=fps), row, own_sensitive, n_deps, deps...
            dyn:  sender_row, ct, lower_slots, frame_id, largest,
                  max_adjusted, n_hp, n_lf,
                  n_hp x (period, is_ancestor, jitter_row),
                  n_lf x (period, is_ancestor, jitter_row, adjusted)
            fps:  release, wcet, av_index, n_preds, n_int, preds...,
                  n_int x (period, wcet, is_ancestor, jitter_row)

    Only called for structurally safe groups, so every availability
    pattern carries the (possibly synthetic idle) staircase tables.

    The per-activity section is **structure-invariant** (interferer
    rows, FrameIDs, transmission times; the availability references are
    by index into ``template.av_nodes``), so it is lowered once per
    structure record (``StructureTemplate.acts``); only the header,
    ``w0``, the fault rows and the availability tables are per group.
    """
    template = plan.template
    out = [
        PLAN_MAGIC,
        template.n_rows,
        template.n_acts,
        len(plan.avs),
        len(template.fault_rows),
    ]
    out += plan.w0
    out += template.fault_rows
    for av in plan.avs:
        out += [av.n_instants, av.slack, av.period, len(av.gap_ends)]
        out += av.instants
        out += av.before
        out += av.gap_ends
        out += av.through
        out += av.eval_order
    return array("q", out + template.acts)


def run_group_native(ctx, plan, configs) -> List:
    """Analyse one group on the C kernels (the oracle where they cannot).

    All *configs* share *plan*'s schedule and structure keys (the
    caller groups them); the returned
    :class:`~repro.analysis.holistic.AnalysisResult` list is
    bit-identical to the per-candidate Python path.
    """
    arts = plan.arts
    if not plan.stair:
        return [ctx._analyse_fetched(c, arts) for c in configs]
    options = ctx.options
    cap_base = ctx._cap_base
    caps = [
        options.cap_factor
        * (cap_base if cap_base > c.gd_cycle else c.gd_cycle)
        for c in configs
    ]
    native = native_or_none()
    n_rows = plan.template.n_rows
    L = len(configs)
    # Lane-major response-time buffer: each lane's fix point works on
    # one contiguous row of ``n_rows`` entries.
    W = array("q", [0]) * (L * n_rows)
    conv = array("q", [0]) * L
    try:
        if plan.native_state is None:
            plan.native_state = native.build_plan(plan_blob(plan).tobytes())
        native.run_batch(
            plan.native_state,
            array("q", caps),
            array("q", [c.n_minislots for c in configs]),
            array("q", [c.gd_cycle for c in configs]),
            array("q", [c.st_bus for c in configs]),
            configs[0].gd_minislot,  # structure-key invariant
            ctx._fault_k,
            options.max_holistic_iterations,
            W,
            conv,
        )
    except OverflowError:  # an input outside int64
        return [ctx._analyse_fetched(c, arts) for c in configs]
    names = plan.template.wcrt_names
    rows = plan.template.wcrt_rows
    results = []
    for lane, config in enumerate(configs):
        if conv[lane] < 0:  # the lane overflowed int64
            results.append(ctx._analyse_fetched(config, arts))
            continue
        base = lane * n_rows
        wcrt = dict(zip(names, [W[base + r] for r in rows]))
        results.append(ctx._result(config, arts, wcrt, conv[lane] == 1))
    return results

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

The shim owns the two safety gates the C code relies on:

* **structural**: every FPS activity must be on the staircase fast path
  (``FpsActPlan.stair`` -- a non-degenerate or fully idle availability
  pattern and a positive wcet); the verdict is group-invariant and
  cached as ``GroupPlan.stair``.
* **overflow**: per-activity magnitude prebounds in unbounded Python
  ints against :data:`~repro.analysis.backend.arrays.OVERFLOW_LIMIT`,
  evaluated per batch because they depend on the lanes' caps.

A group failing either gate is delegated to the Python oracle, one
candidate at a time, on the schedule artifacts the plan already carries
(``AnalysisContext._analyse_fetched``) -- bit-identical by definition,
and no schedule is replayed twice.
"""

from __future__ import annotations

from array import array
from typing import List

from repro.analysis.backend import native_or_none
from repro.analysis.backend.arrays import OVERFLOW_LIMIT

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

    Only called for structurally safe groups, so every FPS activity's
    availability carries the (possibly synthetic idle) staircase tables.

    The per-activity section is **structure-invariant** (interferer
    rows, FrameIDs, transmission times; the availability references are
    by index, and the index of a node's pattern -- first occurrence in
    activity order -- is fixed by the template's activity order), so it
    is serialized once and cached on ``plan.template``; only the header,
    ``w0``, the fault rows and the availability tables are per group.
    """
    template = plan.template
    avs = []
    av_index = {}
    for act in plan.activities:
        if act.kind == "fps" and id(act.av) not in av_index:
            av_index[id(act.av)] = len(avs)
            avs.append(act.av)
    out = [
        PLAN_MAGIC,
        template.n_rows,
        len(plan.activities),
        len(avs),
        len(template.fault_rows),
    ]
    out += plan.w0
    out += template.fault_rows
    for av in avs:
        out += [av.n_instants, av.slack, av.period, len(av.gap_ends)]
        out += av.instants
        out += av.before
        out += av.gap_ends
        out += av.through
        out += av.eval_order
    acts = template.native_acts
    if acts is None:
        acts = _acts_section(plan.activities, av_index)
        template.native_acts = acts
    return array("q", out + acts)


def _acts_section(activities, av_index):
    """The blob's per-activity section (see :func:`plan_blob`)."""
    out = []
    for act in activities:
        out += [
            0 if act.kind == "dyn" else 1,
            act.row,
            int(act.own_sensitive),
            len(act.dep_rows),
        ]
        out += act.dep_rows
        if act.kind == "dyn":
            out += [
                act.sender_row,
                act.ct,
                act.lower_slots,
                act.frame_id,
                act.largest,
                act.max_adjusted,
                len(act.hp_rows),
                len(act.lf_rows),
            ]
            for row in act.hp_rows + act.lf_rows:
                out += row
        else:
            out += [
                act.release,
                act.wcet,
                av_index[id(act.av)],
                len(act.pred_rows),
                len(act.rows),
            ]
            out += act.pred_rows
            for row in act.rows:
                out += row
    return out


def _batch_overflow_safe(ctx, plan, configs, cap_max, ms_len) -> bool:
    """Whole-batch overflow verdict: every activity's prebound holds.

    The maxima are over a handful of lane scalars, in plain Python
    ints.  ``False`` delegates the batch to the Python oracle.  The
    jitter bound is checked on its own too, so the lanes' caps and the
    static response times always fit the int64 buffers -- even for a
    plan with no FPS/DYN activity to prebound.
    """
    jitter_bound = max(cap_max, plan.static_max, plan.template.release_max)
    if jitter_bound >= OVERFLOW_LIMIT:
        return False
    fault_k = ctx._fault_k
    n_ms_l = [c.n_minislots for c in configs]
    gd_l = [c.gd_cycle for c in configs]
    stb_l = [c.st_bus for c in configs]
    gd_max = max(abs(g) for g in gd_l)
    stb_max = max(abs(s) for s in stb_l)
    for act in plan.activities:
        if act.kind == "dyn":
            f = act.frame_id
            largest = act.largest
            lam_max = max(abs(n - largest) for n in n_ms_l)
            sigma_max = max(
                abs(g - s - (f - 1) * ms_len)
                for g, s in zip(gd_l, stb_l)
            )
            extra_max = 0
            if fault_k:
                for n in n_ms_l:
                    lam = n - largest
                    theta = lam - f + 2
                    if f + largest - 1 > n:
                        continue  # not sendable: no extra cycles
                    per_error = (
                        1
                        if act.max_adjusted <= 0
                        else 2 + act.max_adjusted // theta
                    )
                    extra = fault_k * per_error
                    if extra > extra_max:
                        extra_max = extra
            if not act.overflow_safe(
                cap_max,
                jitter_bound,
                gd_max,
                sigma_max,
                stb_max,
                lam_max,
                ms_len,
                extra_max,
            ):
                return False
        else:
            if not act.overflow_safe(cap_max, jitter_bound):
                return False
    return True


def run_group_native(ctx, plan, configs) -> List:
    """Analyse one group on the C kernels (the oracle when unsafe).

    All *configs* share *plan*'s schedule and structure keys (the
    caller groups them); the returned
    :class:`~repro.analysis.holistic.AnalysisResult` list is
    bit-identical to the per-candidate Python path.
    """
    options = ctx.options
    cap_base = ctx._cap_base
    caps = [
        options.cap_factor
        * (cap_base if cap_base > c.gd_cycle else c.gd_cycle)
        for c in configs
    ]
    ms_len = configs[0].gd_minislot  # structure-key invariant
    arts = plan.arts
    if not plan.stair or not _batch_overflow_safe(
        ctx, plan, configs, max(caps), ms_len
    ):
        return [ctx._analyse_fetched(c, arts) for c in configs]
    native = native_or_none()
    if plan.native_state is None:
        plan.native_state = native.build_plan(plan_blob(plan).tobytes())
    n_rows = plan.template.n_rows
    L = len(configs)
    # Lane-major response-time buffer: each lane's fix point works on
    # one contiguous row of ``n_rows`` entries.
    W = array("q", [0]) * (L * n_rows)
    conv = array("q", [0]) * L
    native.run_batch(
        plan.native_state,
        array("q", caps),
        array("q", [c.n_minislots for c in configs]),
        array("q", [c.gd_cycle for c in configs]),
        array("q", [c.st_bus for c in configs]),
        ms_len,
        ctx._fault_k,
        options.max_holistic_iterations,
        W,
        conv,
    )
    names = plan.template.wcrt_names
    rows = plan.template.wcrt_rows
    results = []
    for lane, config in enumerate(configs):
        base = lane * n_rows
        wcrt = dict(zip(names, [W[base + r] for r in rows]))
        results.append(ctx._result(config, arts, wcrt, conv[lane] != 0))
    return results

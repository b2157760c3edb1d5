"""Dispatch shim of the compiled backend (``backend="native"``).

:func:`run_group_native` is the native twin of
:func:`repro.analysis.backend.kernels.run_group`: same
:class:`~repro.analysis.backend.arrays.GroupPlan` lowering in, same
:func:`~repro.analysis.backend.kernels.assemble_results` out -- but the
fix points in between run inside the ``repro._native`` C extension,
each lane's *entire* holistic Gauss-Seidel iteration in tight scalar
loops with no per-step dispatch (see ``src/repro/_native/nativemodule.c``
for the transcription and its bit-identity argument).

The shim owns the two safety gates the C code relies on:

* **structural**: every FPS activity must be on the staircase fast path
  (``FpsActPlan.stair`` -- a non-degenerate or fully idle availability
  pattern and a positive wcet); a group containing any degenerate
  activity is delegated wholesale to the numpy kernels, whose per-lane
  Python fallbacks cover it.  The verdict is group-invariant, so it is
  cached on the plan's :class:`_NativeState`.
* **overflow**: the same per-activity magnitude prebounds as the numpy
  backend (``overflow_safe`` in unbounded Python ints against
  :data:`~repro.analysis.backend.arrays.OVERFLOW_LIMIT`), evaluated per
  batch because they depend on the lanes' caps; any unsafe activity
  delegates the whole batch to the numpy kernels.

Delegation always lands on the numpy path (``backend="native"`` implies
the numpy extra -- :func:`repro.analysis.backend.require_native` checks
both), so every group is analysed bit-identically to the Python oracle
no matter which gate fires.
"""

from __future__ import annotations

from typing import List

from repro.analysis.backend import native_or_none, numpy_or_none

#: Blob header magic ("NATIV"); bumped if the layout ever changes, so a
#: stale extension rejects new blobs instead of misreading them.
PLAN_MAGIC = 0x4E41544956


class _NativeState:
    """Parsed C plan of one group, cached on ``GroupPlan.native_state``."""

    __slots__ = ("structural_ok", "capsule")

    def __init__(self, plan, native, np):
        self.structural_ok = all(
            act.stair for act in plan.activities if act.kind == "fps"
        )
        self.capsule = (
            native.build_plan(plan_blob(plan, np).tobytes())
            if self.structural_ok
            else None
        )


def plan_blob(plan, np):
    """Serialize *plan* into the flat int64 blob ``build_plan`` parses.

    Layout (every field one int64, in order)::

        MAGIC, n_rows, n_acts, n_avs, n_fault
        w0[n_rows]
        fault_rows[n_fault]
        per availability pattern:
            n_instants, slack, period, n_gaps,
            instants[n_instants], before[n_instants],
            gap_ends[n_gaps], through[n_gaps], eval_order[n_instants]
        per activity (plan order == the Gauss-Seidel pass order):
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
    avs = []
    av_index = {}
    for act in plan.activities:
        if act.kind == "fps" and id(act.av) not in av_index:
            av_index[id(act.av)] = len(avs)
            avs.append(act.av)
    out = [
        PLAN_MAGIC,
        plan.n_rows,
        len(plan.activities),
        len(avs),
        int(plan.fault_rows.size),
    ]
    out += plan.w0.tolist()
    out += plan.fault_rows.tolist()
    for av in avs:
        out += [av.n_instants, av.slack, av.period, len(av.gap_ends)]
        out += av.instants.tolist()
        out += av.before.tolist()
        out += av.gap_ends.tolist()
        out += av.through.tolist()
        out += av.eval_order.tolist()
    acts = plan.template.native_acts
    if acts is None:
        acts = _acts_section(plan.activities, av_index)
        plan.template.native_acts = acts
    return np.asarray(out + acts, dtype=np.int64)


def _acts_section(activities, av_index):
    """The blob's per-activity section (see :func:`plan_blob`)."""
    out = []
    for act in activities:
        deps = act.dep_rows.tolist() if act.dep_rows is not None else []
        out += [
            0 if act.kind == "dyn" else 1,
            act.row,
            int(act.own_sensitive),
            len(deps),
        ]
        out += deps
        if act.kind == "dyn":
            ps = act.all_p[:, 0].tolist()
            ancs = act.all_anc[:, 0].tolist()
            jrows = act.all_jrow.tolist()
            adjs = act.lf_adj[:, 0].tolist()
            n_hp = act.n_hp
            n_lf = len(ps) - n_hp
            out += [
                act.sender_row,
                act.ct,
                act.lower_slots,
                act.frame_id,
                act.largest,
                act.max_adjusted,
                n_hp,
                n_lf,
            ]
            for i in range(n_hp):
                out += [ps[i], int(ancs[i]), jrows[i]]
            for i in range(n_lf):
                out += [
                    ps[n_hp + i],
                    int(ancs[n_hp + i]),
                    jrows[n_hp + i],
                    adjs[i],
                ]
        else:
            out += [
                act.release,
                act.wcet,
                av_index[id(act.av)],
                len(act.pred_rows),
                int(act.r_p.size),
            ]
            out += list(act.pred_rows)
            for p, c, anc, jrow in zip(
                act.r_p.tolist(),
                act.r_c.tolist(),
                act.r_anc.tolist(),
                act.r_jrow.tolist(),
            ):
                out += [p, c, int(anc), jrow]
    return out


def _batch_overflow_safe(ctx, plan, configs, cap_max, ms_len) -> bool:
    """The numpy backend's per-activity prebounds, whole-batch verdict.

    Mirrors ``_GroupRun.__init__``'s ``vec`` computation in plain Python
    ints (deliberately no numpy: the maxima are over a handful of lane
    scalars).  ``False`` delegates the batch to the numpy kernels,
    whose per-activity fallbacks handle the unsafe pieces per lane.
    """
    jitter_bound = max(cap_max, plan.static_max, plan.release_max)
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
    """Analyse one group on the C kernels (numpy fallback when unsafe).

    Same contract as :func:`repro.analysis.backend.kernels.run_group`:
    all *configs* share *plan*'s schedule and structure keys, and the
    returned :class:`~repro.analysis.holistic.AnalysisResult` list is
    bit-identical to the per-candidate Python path.
    """
    from repro.analysis.backend.kernels import assemble_results, run_group

    np = numpy_or_none()
    native = native_or_none()
    state = plan.native_state
    if state is None:
        state = _NativeState(plan, native, np)
        plan.native_state = state
    options = ctx.options
    cap_base = ctx._cap_base
    caps_py = [
        options.cap_factor
        * (cap_base if cap_base > c.gd_cycle else c.gd_cycle)
        for c in configs
    ]
    cap_max = max(caps_py)
    ms_len = configs[0].gd_minislot  # structure-key invariant
    if not state.structural_ok or not _batch_overflow_safe(
        ctx, plan, configs, cap_max, ms_len
    ):
        return run_group(ctx, plan, configs)
    L = len(configs)
    i8 = np.int64
    caps = np.asarray(caps_py, dtype=i8)
    n_ms = np.asarray([c.n_minislots for c in configs], dtype=i8)
    gd_cycle = np.asarray([c.gd_cycle for c in configs], dtype=i8)
    st_bus = np.asarray([c.st_bus for c in configs], dtype=i8)
    # Lane-major response-time buffer: each lane's fix point works on
    # one contiguous row; the assembly reads it as (n_rows, L) via .T.
    W = np.empty((L, plan.n_rows), dtype=i8)
    conv = np.empty(L, dtype=i8)
    native.run_batch(
        state.capsule,
        caps,
        n_ms,
        gd_cycle,
        st_bus,
        ms_len,
        ctx._fault_k,
        options.max_holistic_iterations,
        W,
        conv,
    )
    return assemble_results(
        ctx, plan, plan.arts, configs, W.T, conv != 0, cap_max
    )

"""Batched lockstep evaluation of the holistic fix point.

:func:`run_group` replays the exact Gauss-Seidel pass structure of
``AnalysisContext._fix_point`` -- DYN messages in view order, then FPS
tasks in node order, jitters and response times updated in place as the
pass proceeds -- but carries *every lane of the batch at once*: the
response-time and jitter dictionaries become ``(activity, lane)`` int64
matrices, the dirty-set / input-signature memo becomes boolean masks,
and each activity's busy-window recurrences advance all lanes (and, for
FPS, all surviving critical instants) in lockstep under convergence
masks.

Bit-identity with the Python path rests on three repo-established
facts, not on trajectory equality:

* every busy-window evaluation's ``(value, converged)`` pair is
  seed-independent (certified lower-bound seeds converge to exactly the
  cold least fixed point; uncertified seeds are detected by the same
  descending-step / iteration-limit checks and replayed cold), so the
  lanes' seed matrices may diverge from the Python dictionaries without
  affecting any result;
* the per-instant pruning bound is exact for *any* certified lower
  bound of the final worst window, so screening against the first
  evaluated instant's window (instead of the Python loop's running
  worst) elides a different-but-equally-certified instant subset;
* pattern-level dominance elision is value- and flag-exact by
  construction, so the array kernel simply runs without it -- same
  results, none of the deferred-replay machinery.

Per-activity magnitude prebounds (``arrays.OVERFLOW_LIMIT``) are
checked in unbounded Python arithmetic per batch; activities that could
overflow int64 -- and degenerate availability patterns the staircase
does not cover -- are evaluated per lane on the Python kernels through
a :class:`_LaneJitters` view, inside the same batched pass.
"""

from __future__ import annotations

from typing import List

from repro.analysis.backend import numpy_or_none
from repro.analysis.dyn import seeded_busy_window as _dyn_busy_window
from repro.analysis.fps import (
    MAX_FIXPOINT_ITERATIONS,
    seeded_busy_window as _fps_busy_window,
)

#: Unreachable threshold for the ancestor zero-mask rows: the window
#: ``t`` is always strictly above int64 min, so these rows never mask.
_INT64_MIN = -(1 << 63)


class _LaneJitters:
    """Read-only ``Mapping.get`` view of one lane's jitter column.

    Hands the Python kernels (per-lane fallback paths) the exact jitter
    state of one lane of the batched fix point without materialising a
    dictionary; names outside the activity index resolve to the default,
    mirroring ``jitters.get(name, 0)`` on a dict that never held them.
    """

    __slots__ = ("_J", "_idx", "_lane")

    def __init__(self, J, idx, lane):
        self._J = J
        self._idx = idx
        self._lane = lane

    def get(self, name, default=None):
        i = self._idx.get(name)
        if i is None:
            return default
        return int(self._J[i, self._lane])


def run_group(ctx, plan, configs) -> List:
    """Analyse one group of feasible configurations in lockstep.

    All *configs* share *plan*'s schedule key and DYN structure key (the
    caller groups them); returns one
    :class:`~repro.analysis.holistic.AnalysisResult` per configuration,
    bit-identical to ``AnalysisContext._analyse_python``.
    """
    return _GroupRun(ctx, plan, configs).run()


class _GroupRun:
    """State of one batched fix point (see module docstring)."""

    def __init__(self, ctx, plan, configs):
        np = numpy_or_none()
        self.np = np
        self.ctx = ctx
        self.plan = plan
        self.configs = configs
        self.options = ctx.options
        self.arts = plan.arts
        i8 = np.int64
        L = self.L = len(configs)
        # Per-lane ``_DynView`` lists are only materialised for Python
        # fallback lanes (overflow-flagged activities); the hot path
        # derives every per-lane scalar arithmetically below.
        self._lane_views = {}
        cap_base = ctx._cap_base
        self.caps_py = [
            ctx.options.cap_factor
            * (cap_base if cap_base > c.gd_cycle else c.gd_cycle)
            for c in configs
        ]
        self.caps = np.asarray(self.caps_py, dtype=i8)
        cap_max = self.cap_max = max(self.caps_py)
        jitter_bound = max(cap_max, plan.static_max, plan.release_max)
        n_ms = np.asarray([c.n_minislots for c in configs], dtype=i8)
        gd_cycle = np.asarray([c.gd_cycle for c in configs], dtype=i8)
        st_bus = np.asarray([c.st_bus for c in configs], dtype=i8)
        ms_len = configs[0].gd_minislot  # structure-key invariant

        A = len(plan.activities)
        # Response times (rows = activity names incl. the static,
        # read-only ones) and release jitters, one column per lane.
        self.W = np.repeat(plan.w0[:, None], L, axis=1)
        # k-error hypothesis, static side: the ``_fix_point`` bump
        # (``min(static + k * gd_cycle, cap)`` per fault-exposed static
        # row), vectorized over lanes before the first pass reads W.
        fault_k = ctx._fault_k
        if fault_k and plan.fault_rows.size:
            rows = plan.fault_rows
            inflated = self.W[rows] + fault_k * gd_cycle[None, :]
            self.W[rows] = np.minimum(inflated, self.caps[None, :])
        self.J = np.zeros((plan.n_rows, L), dtype=i8)
        # The Python fix point's exact-change-tracking memo, per lane:
        # interferer dirty flags, last own jitter / last output of each
        # activity (the first-insertion marker of ``wcrt[name]`` is the
        # per-activity ``_w_written`` flag -- lanes insert in lockstep).
        self.dirty = np.zeros((A, L), dtype=bool)
        self.has = np.zeros((A, L), dtype=bool)
        self.last_own = np.zeros((A, L), dtype=i8)
        self.last_w = np.zeros((A, L), dtype=i8)
        self.last_ok = np.zeros((A, L), dtype=bool)
        self.conv = np.ones(L, dtype=bool)
        # Certified warm-start seeds: converged demands/windows of the
        # previous evaluation, ``-1`` = no seed (numpy analogue of the
        # Python path's absent dictionary entries; a genuinely negative
        # stored value also lands below every ``seed > wcet``/``> ct``
        # threshold, so the sentinel is semantics-preserving).
        self.seeds = {}
        self.lane_scalars = {}
        self.vec = {}
        self._release = {}
        self._w_written = [False] * A
        self._all_has = [False] * A
        self._all_send = [True] * A
        # Shared identity vector: the per-evaluation ``pos`` arrays are
        # read-only prefixes of this (rebinding compresses copy them).
        self._pos0 = np.arange(L)
        for act in plan.activities:
            if act.kind == "fps":
                self._release[act.pos] = np.full(L, act.release, dtype=i8)
            if act.kind == "dyn":
                # The ``_dyn_views`` scalar derivations, vectorized over
                # lanes: ``lam = p_latest - 1`` with
                # ``p_latest = n_minislots - largest + 1``.
                f = act.frame_id
                largest = act.largest
                lam = n_ms - largest
                theta = lam - f + 2
                sigma = gd_cycle - st_bus - (f - 1) * ms_len
                sendable = (f + largest - 1) <= n_ms
                base = sigma + st_bus
                extra_max = 0
                if fault_k:
                    # The k-error extra-cycles term of ``_dyn_views``,
                    # vectorized: ``k * (2 + max_adjusted // theta)``
                    # per lane (1 per error when no lf row survives).
                    # ``extra`` enters Eq. (3) only as the constant
                    # ``extra * gd_cycle`` summand, so it folds into the
                    # hoisted base term exactly.  theta can be <= 0 only
                    # on non-sendable lanes, which the where() zeroes --
                    # the max(theta, 1) guard just keeps the vector
                    # division defined there.
                    m_adj = act.max_adjusted
                    if m_adj <= 0:
                        per_error = fault_k
                    else:
                        per_error = fault_k * (
                            2 + m_adj // np.maximum(theta, 1)
                        )
                    extra = np.where(sendable, per_error, 0)
                    base = base + extra * gd_cycle
                    extra_max = int(extra.max())
                self.lane_scalars[act.pos] = dict(
                    lam=lam,
                    theta=theta,
                    # sigma and st_bus (and the k-error constant) only
                    # ever enter Eq. (3) as their sum, hoisted out of
                    # the round loop.
                    base=base,
                    gd=gd_cycle,
                    sendable=sendable,
                    ms_len=ms_len,
                )
                self._all_send[act.pos] = bool(sendable.all())
                self.seeds[act.pos] = np.full(L, -1, dtype=i8)
                self.vec[act.pos] = act.overflow_safe(
                    cap_max,
                    jitter_bound,
                    int(np.abs(gd_cycle).max()),
                    int(np.abs(sigma).max()),
                    int(np.abs(st_bus).max()),
                    int(np.abs(lam).max()),
                    ms_len,
                    extra_max,
                )
            else:
                self.seeds[act.pos] = np.full(
                    (act.av.n_instants, L), -1, dtype=i8
                )
                self.vec[act.pos] = act.stair and act.overflow_safe(
                    cap_max, jitter_bound
                )

    # ------------------------------------------------------------------
    def run(self):
        np = self.np
        changed = np.zeros(self.L, dtype=bool)
        for _ in range(self.options.max_holistic_iterations):
            changed = np.zeros(self.L, dtype=bool)
            for act in self.plan.activities:
                self._step(act, changed)
            if not changed.any():
                break
        else:
            # A lane still changing in the final pass changed in every
            # pass (one settled pass implies settled forever), so it is
            # exactly the lane whose per-lane Python run would exhaust
            # ``max_holistic_iterations``.
            self.conv &= ~changed
        return self._assemble()

    def _step(self, act, changed):
        """One activity of one Gauss-Seidel pass, all lanes at once."""
        np = self.np
        a = act.pos
        if act.kind == "dyn":
            j = self.W[act.sender_row]
        else:
            preds = act.pred_rows
            if preds:
                j = np.maximum(self._release[a], self.W[preds[0]])
                for pr in preds[1:]:
                    np.maximum(j, self.W[pr], out=j)
            else:
                j = self._release[a]
        upd = self.J[act.row] != j
        upd_any = bool(upd.any())
        if upd_any:
            self.J[act.row] = j
            changed |= upd
            if act.dep_rows is not None and act.dep_rows.size:
                self.dirty[act.dep_rows] |= upd
        if self._all_has[a]:
            need = self.dirty[a]
            if act.own_sensitive:
                need = need | (self.last_own[a] != j)
        else:
            need = ~self.has[a] | self.dirty[a]
            if act.own_sensitive:
                need |= self.last_own[a] != j
        ln = np.nonzero(need)[0]
        if ln.size:
            if act.kind == "dyn":
                self._eval_dyn(act, ln, j)
            else:
                self._eval_fps(act, ln, j)
            if ln.size == self.L:
                self.dirty[a] = False
                if act.own_sensitive:
                    self.last_own[a] = j
                if not self._all_has[a]:
                    self._all_has[a] = True
            else:
                self.dirty[a, ln] = False
                if act.own_sensitive:
                    self.last_own[a, ln] = j[ln]
                if not self._all_has[a]:
                    self.has[a, ln] = True
        elif not upd_any and self._w_written[a]:
            # Steady state: no evaluation and an unchanged own jitter
            # mean ``value`` is byte-for-byte the previous pass's (it is
            # a pure function of ``j`` and the memoised window), so the
            # write-back below cannot flip ``changed``.
            self.conv &= self.last_ok[a]
            return
        self.conv &= self.last_ok[a]
        if act.kind == "dyn":
            value = j + self.last_w[a]
            value += act.ct
            np.minimum(value, self.caps, out=value)
            if not self._all_send[a]:
                value = np.where(
                    self.lane_scalars[a]["sendable"], value, self.caps
                )
        else:
            value = np.minimum(j + self.last_w[a], self.caps)
        if self._w_written[a]:
            wu = self.W[act.row] != value
            if wu.any():
                changed |= wu
        else:
            # First pass: every ``wcrt[name]`` insertion is a change.
            changed[:] = True
            self._w_written[a] = True
        self.W[act.row] = value

    # ------------------------------------------------------------------
    # DYN busy windows (Eq. (3)), lanes in lockstep
    # ------------------------------------------------------------------
    def _eval_dyn(self, act, ln, j):
        np = self.np
        a = act.pos
        if self._all_send[a]:
            sln = ln
        else:
            sendable = self.lane_scalars[a]["sendable"]
            s_mask = sendable[ln]
            nln = ln[~s_mask]
            if nln.size:
                # The frame can never be sent from these lanes: certain
                # miss, window irrelevant (the value clamps to the cap).
                self.last_w[a, nln] = 0
                self.last_ok[a, nln] = False
            sln = ln[s_mask]
            if not sln.size:
                return
        if not self.vec[a]:
            self._eval_dyn_python(act, sln, j)
            return
        i8 = np.int64
        sc = self.lane_scalars[a]
        # When every lane needs evaluation (the early passes), the
        # fancy-index slices collapse to the full per-act arrays; the
        # round loop never mutates them in place, so sharing is safe.
        full = sln.size == self.L
        capv = self.caps if full else self.caps[sln]
        lam = sc["lam"] if full else sc["lam"][sln]
        theta = sc["theta"] if full else sc["theta"][sln]
        base = sc["base"] if full else sc["base"][sln]
        gd = sc["gd"] if full else sc["gd"][sln]
        ms_len = sc["ms_len"]
        ct = act.ct
        lower = act.lower_slots
        # Interferer jitters are frozen for the duration of one
        # evaluation sweep; ancestor rows carry the negative offset
        # jitter own - period (the unified-count formulation).  hp and
        # lf rows share one packed matrix (hp rows first), and the
        # precomputed (3, R) weight matrix folds the three per-round
        # column sums into a single integer matmul.
        has_anc = act.has_anc
        gathered = (
            self.J[act.all_jrow]
            if full
            else self.J[act.all_jrow[:, None], sln]
        )
        # Ceil-division fusion: with the jitters frozen for the whole
        # evaluation, ceil((t + jit) / p) == (t + (jit + p - 1)) // p,
        # so the ``p - 1`` summand folds into the jitter matrix once.
        # The ancestor zero-mask ``s <= 0`` becomes ``t <= -jit``; rows
        # without it get an unreachable threshold.
        if has_anc:
            own = j if full else j[sln]
            jit = np.where(act.all_anc, own[None, :] - act.all_p, gathered)
            jit_pm1 = jit + act.all_pm1
            thresh = np.where(act.all_anc, -jit, _INT64_MIN)
        else:
            jit_pm1 = gathered + act.all_pm1
            thresh = None
        p_col = act.all_p
        weights = act.weights
        no_hp = act.n_hp == 0
        seed = self.seeds[a] if full else self.seeds[a][sln]
        seeded = seed > ct
        seeded_any = bool(seeded.any())
        t = np.where(seeded, seed, ct)
        M = sln.size
        iters = np.zeros(M, dtype=i8)
        res_w = np.zeros(M, dtype=i8)
        res_ok = np.zeros(M, dtype=bool)
        res_fin = np.zeros(M, dtype=i8)
        pos = self._pos0[:M]
        rounds = 0
        while pos.size:
            rounds += 1
            ceils = (t[None, :] + jit_pm1) // p_col
            counts = (
                np.where(t[None, :] <= thresh, 0, ceils)
                if thresh is not None
                else ceils
            )
            sums = weights @ counts
            lf_total = sums[1]
            lf_cycles = np.minimum(lf_total // theta, sums[2])
            leftover = lf_total - lf_cycles * theta
            np.maximum(leftover, 0, out=leftover)
            final_consumed = np.minimum(lam, lower + leftover)
            cycles = lf_cycles if no_hp else sums[0] + lf_cycles
            w = base + cycles * gd + final_consumed * ms_len
            # Boolean algebra on the lane partition: ``le = wle & ~capped``
            # is ``wle > capped``, ``done_conv = le & ~restart`` is
            # ``le ^ restart`` (restart is a subset of le), and
            # ``adv = ~capped & ~le`` is ``~(capped | wle)``.
            capped = w >= capv
            wle = w <= t
            le = wle > capped
            if seeded_any:
                restart = (le & seeded) & (w < t)
                done_conv = le ^ restart
            else:
                restart = None
                done_conv = le
            adv = ~(capped | wle)
            iters += adv
            if rounds >= MAX_FIXPOINT_ITERATIONS:
                # Per-lane iteration counts are bounded by the shared
                # round counter, so exhaustion bookkeeping only has to
                # exist once that counter could have reached the limit.
                exhausted = adv & (iters >= MAX_FIXPOINT_ITERATIONS)
                ex_done = exhausted & ~seeded
                finalize = capped | done_conv | ex_done
                restart_all = (
                    restart | (exhausted & seeded)
                    if restart is not None
                    else exhausted & seeded
                )
                adv = adv & ~exhausted
            else:
                finalize = capped | done_conv
                restart_all = restart
            n_fin = int(np.count_nonzero(finalize))
            # Every surviving lane either advanced (new window ``w``) or
            # restarts cold, so the survivor state is ``w`` compressed,
            # patched below -- no blend against the old ``t`` needed.
            if n_fin:
                fpos = pos[finalize]
                fc = capped[finalize]
                res_w[fpos] = np.where(fc, capv[finalize], w[finalize])
                res_ok[fpos] = done_conv[finalize]
                res_fin[fpos] = np.where(fc, t[finalize], w[finalize])
                keep = ~finalize
                pos = pos[keep]
                t = w[keep]
                seeded = seeded[keep]
                iters = iters[keep]
                capv = capv[keep]
                lam = lam[keep]
                theta = theta[keep]
                base = base[keep]
                gd = gd[keep]
                jit_pm1 = jit_pm1[:, keep]
                if thresh is not None:
                    thresh = thresh[:, keep]
            else:
                t = w
            # Uncertified seeds (descending step or iteration-limit
            # exit) replay cold in place: reset to the unseeded start
            # (``t``/``iters`` are fresh arrays here, never aliased).
            if restart_all is not None and restart_all.any():
                rs = restart_all[keep] if n_fin else restart_all
                t[rs] = ct
                seeded = seeded & ~rs
                iters[rs] = 0
        self.last_w[a, sln] = res_w
        self.last_ok[a, sln] = res_ok
        self.seeds[a][sln] = res_fin

    def _lane_view(self, lane, dyn_index):
        views = self._lane_views.get(lane)
        if views is None:
            views = self.ctx._dyn_views(self.configs[lane])
            self._lane_views[lane] = views
        return views[dyn_index]

    def _eval_dyn_python(self, act, sln, j):
        """Per-lane Python fallback (overflow-flagged activities)."""
        a = act.pos
        for lane in sln.tolist():
            view = self._lane_view(lane, act.dyn_index)
            s = int(self.seeds[a][lane])
            w, ok, final = _dyn_busy_window(
                view.hp_info,
                view.lf_info,
                view.lower_slots,
                view.lam,
                view.theta,
                view.sigma,
                view.ct,
                view.gd_cycle,
                view.st_bus,
                view.ms_len,
                _LaneJitters(self.J, self.plan.name_idx, lane),
                self.caps_py[lane],
                int(j[lane]),
                self.options.dyn_fill_strategy,
                s if s >= 0 else None,
                view.fault_cycles,
            )
            self.last_w[a, lane] = w
            self.last_ok[a, lane] = ok
            self.seeds[a][lane] = final

    # ------------------------------------------------------------------
    # FPS busy-window maximisations, (instant, lane) pairs in lockstep
    # ------------------------------------------------------------------
    def _eval_fps(self, act, ln, j):
        if not self.vec[act.pos]:
            self._eval_fps_python(act, ln, j)
            return
        np = self.np
        i8 = np.int64
        a = act.pos
        av = act.av
        M = ln.size
        # Full-batch fast path, as in ``_eval_dyn``: skip the gather
        # copies when every lane is being evaluated (the early passes).
        full = M == self.L
        capv = self.caps if full else self.caps[ln]
        R = act.r_p.size
        if not R:
            jitm = np.zeros((0, M), dtype=i8)
        else:
            gathered = (
                self.J[act.r_jrow]
                if full
                else self.J[act.r_jrow[:, None], ln]
            )
            if act.has_anc:
                own = j if full else j[ln]
                jitm = np.where(
                    act.r_anc[:, None],
                    own[None, :] - act.r_p[:, None],
                    gathered,
                )
            else:
                jitm = gathered
        seeds_cols = self.seeds[a] if full else self.seeds[a][:, ln]
        new_seeds = np.full(seeds_cols.shape, -1, dtype=i8)
        # Round 1: the first instant of the evaluation order (longest
        # initial busy run), every lane -- the bound needs a worst
        # window to screen against.
        idx0 = int(av.eval_order[0])
        t0 = np.full(M, int(av.instants[idx0]), dtype=i8)
        b0 = np.full(M, int(av.before[idx0]), dtype=i8)
        win1, ok1, fin1, capped1 = self._stair_pairs(
            act, t0, b0, None, seeds_cols[idx0].copy(), capv, jitm
        )
        new_seeds[idx0] = fin1
        value = win1.copy()
        ok_l = ok1.copy()
        if av.n_instants > 1:
            act_cols = np.nonzero(~capped1)[0]
            if act_cols.size:
                # The per-instant bound as an array predicate: one
                # shared interference evaluation at the worst window,
                # one staircase advance per remaining (instant, lane),
                # certified by the same activation-count guard as the
                # Python kernel.
                worst = win1[act_cols]
                if R:
                    s = worst[None, :] + jitm[:, act_cols]
                    counts = np.where(
                        s > 0, (s + act.r_pm1_col) // act.r_p_col, 0
                    )
                    bound_demand = act.wcet + act.r_c @ counts
                    bound_act = counts.sum(axis=0)
                else:
                    bound_demand = np.full(
                        act_cols.size, act.wcet, dtype=i8
                    )
                    bound_act = np.zeros(act_cols.size, dtype=i8)
                guard = bound_act + 2 <= MAX_FIXPOINT_ITERATIONS
                rest = av.eval_order[1:]
                t0r = av.instants[rest]
                b0r = av.before[rest]
                aa = b0r[:, None] + bound_demand[None, :] - 1
                whole, rem = np.divmod(aa, av.slack)
                k = np.searchsorted(av.through, rem + 1)
                w_bound = (
                    whole * av.period
                    + av.gap_ends[k]
                    - (av.through[k] - rem - 1)
                    - t0r[:, None]
                )
                survive = ~(guard[None, :] & (w_bound <= worst[None, :]))
                pr_i, pr_c = np.nonzero(survive)
                if pr_i.size:
                    cols2 = act_cols[pr_c]
                    win2, ok2, fin2, _ = self._stair_pairs(
                        act,
                        t0r[pr_i],
                        b0r[pr_i],
                        cols2,
                        seeds_cols[rest[pr_i], cols2],
                        capv[cols2],
                        jitm,
                    )
                    new_seeds[rest[pr_i], cols2] = fin2
                    np.maximum.at(value, cols2, win2)
                    np.logical_and.at(ok_l, cols2, ok2)
        if full:
            self.last_w[a] = value
            self.last_ok[a] = ok_l
            self.seeds[a] = new_seeds
        else:
            self.last_w[a, ln] = value
            self.last_ok[a, ln] = ok_l
            self.seeds[a][:, ln] = new_seeds

    def _stair_pairs(self, act, t0, b0, cols, seed, capp, jitm):
        """Demand recurrences of (instant, lane) pairs, in lockstep.

        The exact staircase of the Python fast path (divmod + bisect
        over the gap prefix sums), with the same certified warm starts
        and the same uncertified-seed cold restarts.  Returns
        ``(window, converged, final_demand, capped)`` per pair.
        """
        np = self.np
        i8 = np.int64
        av = act.av
        wcet = act.wcet
        P = t0.size
        R = act.r_p.size
        # Ceil-division fusion as in ``_eval_dyn``: the s > 0 gate
        # becomes ``window > -jit`` against the presummed jit + p - 1.
        if R:
            jitc = jitm if cols is None else jitm[:, cols]
            jit_pm1 = jitc + act.r_pm1_col
            neg_jit = -jitc
        else:
            jit_pm1 = neg_jit = None
        p_col = act.r_p_col
        through = av.through
        gap_ends = av.gap_ends
        slack = av.slack
        period = av.period
        seeded = seed > wcet
        seeded_any = bool(seeded.any())
        demand = np.where(seeded, seed, wcet)
        iters = np.zeros(P, dtype=i8)
        res_w = np.zeros(P, dtype=i8)
        res_ok = np.zeros(P, dtype=bool)
        res_fin = np.zeros(P, dtype=i8)
        res_capped = np.zeros(P, dtype=bool)
        pos = self._pos0[:P] if P <= self._pos0.size else np.arange(P)
        r_c = act.r_c
        rounds = 0
        while pos.size:
            rounds += 1
            aa = b0 + demand - 1
            whole, rem = np.divmod(aa, slack)
            k = np.searchsorted(through, rem + 1)
            window = (
                whole * period + gap_ends[k] - (through[k] - rem - 1) - t0
            )
            capped = window >= capp
            n_cap = int(np.count_nonzero(capped))
            if n_cap:
                fpos = pos[capped]
                res_w[fpos] = capp[capped]
                res_fin[fpos] = demand[capped]
                res_capped[fpos] = True
                keep = ~capped
                pos = pos[keep]
                t0 = t0[keep]
                b0 = b0[keep]
                demand = demand[keep]
                seeded = seeded[keep]
                iters = iters[keep]
                capp = capp[keep]
                window = window[keep]
                if R:
                    jit_pm1 = jit_pm1[:, keep]
                    neg_jit = neg_jit[:, keep]
                if not pos.size:
                    break
            if R:
                counts = np.where(
                    window[None, :] > neg_jit,
                    (window[None, :] + jit_pm1) // p_col,
                    0,
                )
                new_demand = wcet + r_c @ counts
            else:
                new_demand = np.full(pos.size, wcet, dtype=i8)
            conv = new_demand == demand
            ncv = ~conv
            if seeded_any:
                restart = (ncv & seeded) & (new_demand < demand)
                adv = ncv ^ restart
            else:
                restart = None
                adv = ncv
            iters += adv
            if rounds >= MAX_FIXPOINT_ITERATIONS:
                # As in ``_eval_dyn``: per-lane iteration counts are
                # bounded by the shared round counter.
                exhausted = adv & (iters >= MAX_FIXPOINT_ITERATIONS)
                ex_done = exhausted & ~seeded
                finalize = conv | ex_done
                restart_all = (
                    restart | (exhausted & seeded)
                    if restart is not None
                    else exhausted & seeded
                )
                adv = adv & ~exhausted
            else:
                finalize = conv
                restart_all = restart
            n_fin = int(np.count_nonzero(finalize))
            # As in ``_eval_dyn``: survivors either advanced to
            # ``new_demand`` or restart cold, so compress ``new_demand``
            # and patch the restarts on the fresh arrays.
            if n_fin:
                fpos = pos[finalize]
                res_w[fpos] = window[finalize]
                res_ok[fpos] = conv[finalize]
                res_fin[fpos] = np.where(
                    conv[finalize], demand[finalize], new_demand[finalize]
                )
                keep = ~finalize
                pos = pos[keep]
                t0 = t0[keep]
                b0 = b0[keep]
                demand = new_demand[keep]
                seeded = seeded[keep]
                iters = iters[keep]
                capp = capp[keep]
                if R:
                    jit_pm1 = jit_pm1[:, keep]
                    neg_jit = neg_jit[:, keep]
            else:
                demand = new_demand
            if restart_all is not None and restart_all.any():
                rs = restart_all[keep] if n_fin else restart_all
                demand[rs] = wcet
                seeded = seeded & ~rs
                iters[rs] = 0
        return res_w, res_ok, res_fin, res_capped

    def _eval_fps_python(self, act, ln, j):
        """Per-lane Python fallback (degenerate patterns, overflow)."""
        a = act.pos
        for lane in ln.tolist():
            seeds = [
                None if v < 0 else v
                for v in self.seeds[a][:, lane].tolist()
            ]
            window_value, ok, demands = _fps_busy_window(
                act.wcet,
                act.plan.interferers,
                act.availability,
                _LaneJitters(self.J, self.plan.name_idx, lane),
                self.caps_py[lane],
                int(j[lane]),
                seeds,
                True,
                False,
            )
            self.last_w[a, lane] = window_value
            self.last_ok[a, lane] = ok
            self.seeds[a][:, lane] = [
                -1 if d is None else d for d in demands
            ]

    # ------------------------------------------------------------------
    def _assemble(self):
        return assemble_results(
            self.ctx,
            self.plan,
            self.arts,
            self.configs,
            self.W,
            self.conv,
            self.cap_max,
        )


def assemble_results(ctx, plan, arts, configs, W, conv, cap_max):
    """``AnalysisResult`` list from a solved ``(n_rows, L)`` W matrix.

    Shared by the numpy and native backends: both end their fix points
    with the same response-time matrix and per-lane convergence flags,
    and the assembly (wcrt dicts in the Python path's insertion order,
    Eq. (5) costs, retimed tables) is backend-independent.
    """
    from repro.analysis.holistic import AnalysisResult
    from repro.core.cost import cost_function

    # ``tolist`` hands back Python ints, so the assembled wcrt dicts
    # are type-identical to the Python path's (JSON-serialisable,
    # same reprs), not just value-equal.
    wcrt_cols = W[plan.wcrt_rows].T.tolist()
    names = plan.wcrt_names
    costs = batch_costs(ctx, plan, W, cap_max, len(configs))
    results = []
    for lane, config in enumerate(configs):
        wcrt = dict(zip(names, wcrt_cols[lane]))
        converged = bool(conv[lane])
        cost = (
            costs[lane]
            if costs is not None
            else cost_function(ctx.app, wcrt)
        )
        table = (
            arts.table
            if arts.table.config is config
            else arts.table.retime_for(config)
        )
        results.append(
            AnalysisResult(
                config=config,
                feasible=True,
                schedulable=cost.schedulable and converged,
                converged=converged,
                cost=cost,
                wcrt=wcrt,
                table=table,
            )
        )
    return results


def batch_costs(ctx, plan, W, cap_max, L):
    """Eq. (5) over all lanes at once, or ``None`` for the fallback.

    The sums are prebounded (every response time is <= its lane's
    cap, so each term is bounded by ``cap_max + |deadline|``) before
    trusting int64; the term order matches ``cost_function``'s
    iteration exactly, so the integer sums -- and hence the float
    conversions -- are identical.
    """
    from repro.analysis.backend.arrays import OVERFLOW_LIMIT
    from repro.core.cost import CostBreakdown

    np = numpy_or_none()
    if plan.cost_rows is None:
        return None
    n_terms = plan.cost_rows.size
    bound = (cap_max + plan.deadline_abs_max + 1) * (n_terms + 1)
    if bound >= OVERFLOW_LIMIT:
        return None
    diff = W[plan.cost_rows] - plan.deadlines[:, None]
    pos = diff > 0
    over = np.where(pos, diff, 0)
    f1 = over.sum(axis=0)
    f2 = diff.sum(axis=0)
    misses = pos.sum(axis=0)
    worst = over.max(axis=0, initial=0)
    costs = []
    for lane in range(L):
        lane_f1 = int(f1[lane])
        lane_f2 = int(f2[lane])
        if lane_f1 > 0:
            costs.append(
                CostBreakdown(
                    value=float(lane_f1),
                    schedulable=False,
                    misses=int(misses[lane]),
                    worst_violation=int(worst[lane]),
                    total_slack=-lane_f2,
                )
            )
        else:
            costs.append(
                CostBreakdown(
                    value=float(lane_f2),
                    schedulable=True,
                    misses=0,
                    worst_violation=0,
                    total_slack=-lane_f2,
                )
            )
    return costs

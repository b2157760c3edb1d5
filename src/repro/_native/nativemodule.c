/* repro._native -- compiled fix-point kernels and the OBC/CF curve-fit
 * scorer (backend="native").
 *
 * Per-lane scalar transcription of AnalysisContext._fix_point and the
 * two busy-window recurrences (repro/analysis/dyn.py Eq. (3),
 * repro/analysis/fps.py staircase maximisation with the per-instant
 * pruning bound).  One lane = one candidate configuration; each lane
 * runs its entire holistic fix point -- the component schedule, with
 * Gauss-Seidel passes inside each cyclic component -- in C with no
 * per-step Python dispatch, so even the singleton-lane groups of
 * ST-heavy sweeps run faster than the warm Python path.
 *
 * Bit-identity contract: every arithmetic step mirrors the Python
 * kernels statement for statement --
 *   - cdiv() equals Python's -(-a // b) for every a and b > 0
 *     (C division truncates toward zero, so the a <= 0 branch is
 *     already a ceiling);
 *   - genuine floor divisions (lf_total // theta, the staircase
 *     divmod) only ever see non-negative numerators, where C division
 *     is a floor;
 *   - certified warm-start seeds use -1 as the "no seed" sentinel
 *     (safe: thresholds compare seed > ct / seed > wcet with
 *     ct, wcet >= 0), also left by an iteration-limit exit;
 *   - uncertified seeds (descending step or iteration-limit exit)
 *     restart the recurrence cold in place, matching the Python
 *     kernels' replay semantics;
 *   - every +, - and * on a lane-derived value is checked
 *     (ck_add/ck_sub/ck_mul over __builtin_*_overflow): a lane whose
 *     exact value would leave int64 stops at once and reports
 *     conv = -1, and the caller (analysis/backend/native.py) reruns
 *     just that lane on the Python oracle.  A lane that never trips a
 *     check computed exactly the integers Python's unbounded ints
 *     would, with or without -fwrapv (the builtins never wrap
 *     silently).  Divisions need no check: every divisor is >= 1
 *     (periods and slack validated at parse time, theta >= 1 on
 *     sendable lanes).
 *
 * The module uses only the buffer protocol: the caller passes stdlib
 * array('q') buffers (raw y* / w* int64 buffers, size-checked here), so
 * it builds against a bare CPython and needs no third-party package.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

#define NATIVE_MAGIC 0x4e41544957LL /* "NATIW" */
#define MAX_FIXPOINT_ITERATIONS 512
#define CAPSULE_NAME "repro._native.plan"

/* Checked int64 arithmetic: store the exact result and yield 0, or
 * yield 1 when it would leave int64 (the lane then reports overflow).
 * The builtins compute in infinite precision, so they stay exact
 * whether or not the build passes -fwrapv. */
#define ck_add(a, b, out) __builtin_add_overflow(a, b, out)
#define ck_sub(a, b, out) __builtin_sub_overflow(a, b, out)
#define ck_mul(a, b, out) __builtin_mul_overflow(a, b, out)

/* ceil(a / b) for b > 0, equal to Python's -(-a // b) for every a:
 * a > 0 is the classic (a - 1) / b + 1; a <= 0 truncates toward zero,
 * which IS the ceiling for non-positive numerators. */
static inline i64
cdiv(i64 a, i64 b)
{
    return a > 0 ? (a - 1) / b + 1 : a / b;
}

/* First index k with arr[k] > x -- Python's bisect_left(arr, x + 1).
 * The staircase guarantees x = rem < slack = arr[n - 1]; the clamp is
 * pure out-of-bounds defence. */
static inline i64
bisect_gt(const i64 *arr, i64 n, i64 x)
{
    i64 lo = 0, hi = n;
    while (lo < hi) {
        i64 mid = (lo + hi) >> 1;
        if (arr[mid] > x)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo < n ? lo : n - 1;
}

typedef struct {
    i64 n_instants;
    i64 slack;
    i64 period;
    i64 n_gaps;
    const i64 *instants;
    const i64 *before;
    const i64 *gap_ends;
    const i64 *through;
    const i64 *eval_order;
} Avail;

typedef struct {
    i64 kind; /* 0 = dyn, 1 = fps */
    i64 row;
    i64 own_sensitive;
    i64 n_deps;
    const i64 *deps; /* activity positions */
    /* dyn */
    i64 sender_row;
    i64 ct;
    i64 lower_slots;
    i64 frame_id;
    i64 largest;
    i64 max_adjusted;
    i64 n_hp;       /* rows of (period, is_ancestor, jitter_row) */
    i64 n_lf;       /* rows of (period, is_ancestor, jitter_row, adj) */
    const i64 *hp;
    const i64 *lf;
    /* fps */
    i64 release;
    i64 wcet;
    i64 n_preds;
    i64 n_int;      /* rows of (period, wcet, is_ancestor, jitter_row) */
    const i64 *preds;
    const i64 *rows;
    const Avail *av;
    /* seed bookkeeping: offset into the per-run seed pool */
    i64 seed_off;
    i64 seed_len;
} Act;

typedef struct {
    i64 n_rows;
    i64 n_acts;
    i64 n_comps;
    i64 n_avs;
    i64 n_fault;
    const i64 *w0;
    const i64 *fault_rows;
    /* the fix point's schedule: n_comps rows of (start, end, cyclic),
     * activity slices tiling [0, n_acts) in order */
    const i64 *comps;
    Avail *avs;
    Act *acts;
    i64 seed_total;
    i64 max_instants;
    i64 *data; /* owned copy of the blob the pointers above index into */
} Plan;

/* Per-activity mutable state of one lane's fix point. */
typedef struct {
    i64 has;
    i64 dirty;
    i64 w_written;
    i64 last_own;
    i64 last_w;
    i64 last_ok;
    /* per-lane derived DYN scalars (_dyn_views arithmetic) */
    i64 lam;
    i64 theta;
    i64 sigma;
    i64 sendable;
    i64 extra;
} AState;

static void
plan_free(Plan *plan)
{
    if (!plan)
        return;
    free(plan->avs);
    free(plan->acts);
    free(plan->data);
    free(plan);
}

static void
plan_destructor(PyObject *capsule)
{
    plan_free((Plan *)PyCapsule_GetPointer(capsule, CAPSULE_NAME));
}

/* ------------------------------------------------------------------ */
/* blob parsing                                                        */
/* ------------------------------------------------------------------ */

typedef struct {
    const i64 *p;
    Py_ssize_t n; /* remaining words */
} Cur;

static int
take(Cur *c, i64 k, const i64 **out)
{
    if (k < 0 || c->n < k)
        return -1;
    *out = c->p;
    c->p += k;
    c->n -= k;
    return 0;
}

static int
take1(Cur *c, i64 *out)
{
    const i64 *p;
    if (take(c, 1, &p))
        return -1;
    *out = *p;
    return 0;
}

static PyObject *
bad_blob(void)
{
    PyErr_SetString(PyExc_ValueError, "malformed native plan blob");
    return NULL;
}

static PyObject *
native_build_plan(PyObject *self, PyObject *args)
{
    Py_buffer blob;
    if (!PyArg_ParseTuple(args, "y*", &blob))
        return NULL;
    if (blob.len % 8 != 0) {
        PyBuffer_Release(&blob);
        return bad_blob();
    }
    Plan *plan = (Plan *)calloc(1, sizeof(Plan));
    if (!plan) {
        PyBuffer_Release(&blob);
        return PyErr_NoMemory();
    }
    plan->data = (i64 *)malloc(blob.len ? (size_t)blob.len : 8);
    if (!plan->data) {
        PyBuffer_Release(&blob);
        plan_free(plan);
        return PyErr_NoMemory();
    }
    memcpy(plan->data, blob.buf, (size_t)blob.len);
    Cur c = {plan->data, blob.len / 8};
    PyBuffer_Release(&blob);

    i64 magic;
    if (take1(&c, &magic) || magic != NATIVE_MAGIC ||
        take1(&c, &plan->n_rows) || take1(&c, &plan->n_acts) ||
        take1(&c, &plan->n_comps) || take1(&c, &plan->n_avs) ||
        take1(&c, &plan->n_fault) ||
        plan->n_rows < 0 || plan->n_acts < 0 || plan->n_comps < 0 ||
        plan->n_comps > plan->n_acts || plan->n_comps > c.n ||
        plan->n_avs < 0 || plan->n_fault < 0)
        goto fail;
    if (take(&c, plan->n_rows, &plan->w0) ||
        take(&c, plan->n_fault, &plan->fault_rows) ||
        take(&c, 3 * plan->n_comps, &plan->comps))
        goto fail;
    for (i64 k = 0; k < plan->n_fault; k++)
        if (plan->fault_rows[k] < 0 || plan->fault_rows[k] >= plan->n_rows)
            goto fail;
    /* The components must tile [0, n_acts) in order, each non-empty. */
    i64 next = 0;
    for (i64 k = 0; k < plan->n_comps; k++) {
        const i64 *comp = plan->comps + 3 * k;
        if (comp[0] != next || comp[1] <= comp[0] ||
            (comp[2] != 0 && comp[2] != 1))
            goto fail;
        next = comp[1];
    }
    if (next != plan->n_acts)
        goto fail;
    /* Every availability and activity record takes at least 4 words, so
     * counts the rest of the blob cannot hold are refused before they
     * size an allocation. */
    if (plan->n_avs > c.n / 4 || plan->n_acts > (c.n - 4 * plan->n_avs) / 4)
        goto fail;

    plan->avs = (Avail *)calloc(plan->n_avs ? plan->n_avs : 1, sizeof(Avail));
    plan->acts = (Act *)calloc(plan->n_acts ? plan->n_acts : 1, sizeof(Act));
    if (!plan->avs || !plan->acts) {
        plan_free(plan);
        return PyErr_NoMemory();
    }
    for (i64 v = 0; v < plan->n_avs; v++) {
        Avail *av = &plan->avs[v];
        if (take1(&c, &av->n_instants) || take1(&c, &av->slack) ||
            take1(&c, &av->period) || take1(&c, &av->n_gaps) ||
            av->n_instants < 0 || av->slack < 1 || av->n_gaps < 1)
            goto fail;
        if (take(&c, av->n_instants, &av->instants) ||
            take(&c, av->n_instants, &av->before) ||
            take(&c, av->n_gaps, &av->gap_ends) ||
            take(&c, av->n_gaps, &av->through) ||
            take(&c, av->n_instants, &av->eval_order))
            goto fail;
        for (i64 k = 0; k < av->n_instants; k++)
            if (av->eval_order[k] < 0 || av->eval_order[k] >= av->n_instants)
                goto fail;
        if (av->through[av->n_gaps - 1] != av->slack)
            goto fail;
    }
    for (i64 a = 0; a < plan->n_acts; a++) {
        Act *act = &plan->acts[a];
        if (take1(&c, &act->kind) || take1(&c, &act->row) ||
            take1(&c, &act->own_sensitive) || take1(&c, &act->n_deps) ||
            (act->kind != 0 && act->kind != 1) ||
            act->row < 0 || act->row >= plan->n_rows)
            goto fail;
        if (take(&c, act->n_deps, &act->deps))
            goto fail;
        for (i64 k = 0; k < act->n_deps; k++)
            if (act->deps[k] < 0 || act->deps[k] >= plan->n_acts)
                goto fail;
        if (act->kind == 0) {
            if (take1(&c, &act->sender_row) || take1(&c, &act->ct) ||
                take1(&c, &act->lower_slots) || take1(&c, &act->frame_id) ||
                take1(&c, &act->largest) || take1(&c, &act->max_adjusted) ||
                take1(&c, &act->n_hp) || take1(&c, &act->n_lf) ||
                act->sender_row < 0 || act->sender_row >= plan->n_rows)
                goto fail;
            if (take(&c, 3 * act->n_hp, &act->hp) ||
                take(&c, 4 * act->n_lf, &act->lf))
                goto fail;
            for (i64 k = 0; k < act->n_hp; k++)
                if (act->hp[3 * k] < 1 || act->hp[3 * k + 2] < 0 ||
                    act->hp[3 * k + 2] >= plan->n_rows)
                    goto fail;
            for (i64 k = 0; k < act->n_lf; k++)
                if (act->lf[4 * k] < 1 || act->lf[4 * k + 2] < 0 ||
                    act->lf[4 * k + 2] >= plan->n_rows)
                    goto fail;
            act->seed_off = plan->seed_total;
            act->seed_len = 1;
        } else {
            i64 av_index;
            if (take1(&c, &act->release) || take1(&c, &act->wcet) ||
                take1(&c, &av_index) || take1(&c, &act->n_preds) ||
                take1(&c, &act->n_int) ||
                av_index < 0 || av_index >= plan->n_avs)
                goto fail;
            act->av = &plan->avs[av_index];
            if (take(&c, act->n_preds, &act->preds) ||
                take(&c, 4 * act->n_int, &act->rows))
                goto fail;
            for (i64 k = 0; k < act->n_preds; k++)
                if (act->preds[k] < 0 || act->preds[k] >= plan->n_rows)
                    goto fail;
            for (i64 k = 0; k < act->n_int; k++)
                if (act->rows[4 * k] < 1 || act->rows[4 * k + 3] < 0 ||
                    act->rows[4 * k + 3] >= plan->n_rows)
                    goto fail;
            act->seed_off = plan->seed_total;
            act->seed_len = act->av->n_instants;
            if (act->av->n_instants > plan->max_instants)
                plan->max_instants = act->av->n_instants;
        }
        plan->seed_total += act->seed_len;
    }
    if (c.n != 0)
        goto fail;
    PyObject *capsule = PyCapsule_New(plan, CAPSULE_NAME, plan_destructor);
    if (!capsule)
        plan_free(plan);
    return capsule;
fail:
    plan_free(plan);
    return bad_blob();
}

/* ------------------------------------------------------------------ */
/* the DYN Eq. (3) recurrence (dyn.resolved_busy_window, "bound" fill) */
/* ------------------------------------------------------------------ */

/* Activations of interferer row r = (period, is_ancestor, jitter_row,
 * ...) in window t: ancestors count offset-gated from the own jitter
 * (0 when the offset window is empty), others from their own jitter. */
static int
dyn_count(const i64 *r, i64 t, i64 own_j, const i64 *J, i64 *n)
{
    i64 x;
    if (r[1]) {
        if (ck_add(t, own_j, &x) || ck_sub(x, r[0], &x))
            return -1;
        *n = x > 0 ? cdiv(x, r[0]) : 0;
    } else {
        if (ck_add(t, J[r[2]], &x))
            return -1;
        *n = cdiv(x, r[0]);
    }
    return 0;
}

/* Both kernels return 0, or -1 as soon as a checked operation
 * overflows -- before any wrapped value is used as an index or a
 * divisor; the lane's other state is then garbage and discarded. */
static int
eval_dyn(const Act *act, AState *s, const i64 *J, i64 own_j, i64 cap,
         i64 gd, i64 stb, i64 ms_len, i64 *seed_slot)
{
    i64 seed = seed_slot[0];
    i64 ct = act->ct;
    int seeded = seed > ct; /* -1 sentinel lands below every ct >= 0 */
    i64 t = seeded ? seed : ct;
    i64 w = 0;
    i64 lam = s->lam, theta = s->theta, sigma = s->sigma, extra = s->extra;
    i64 lower = act->lower_slots;
    i64 iter = 0;
    for (;;) {
        if (iter >= MAX_FIXPOINT_ITERATIONS) {
            if (seeded) { /* uncertified seed: replay cold */
                seeded = 0;
                t = ct;
                iter = 0;
                continue;
            }
            s->last_w = w;
            s->last_ok = 0;
            seed_slot[0] = -1; /* a truncated window seeds nothing */
            return 0;
        }
        iter++;
        i64 hp_cycles = 0, x, n;
        for (i64 i = 0; i < act->n_hp; i++)
            if (dyn_count(act->hp + 3 * i, t, own_j, J, &n) ||
                ck_add(hp_cycles, n, &hp_cycles))
                return -1;
        i64 lf_total = 0, lf_useful = 0;
        for (i64 i = 0; i < act->n_lf; i++) {
            const i64 *r = act->lf + 4 * i;
            if (dyn_count(r, t, own_j, J, &n))
                return -1;
            if (n > 0) { /* plan rows all carry adjusted > 0 */
                if (ck_mul(r[3], n, &x) || ck_add(lf_total, x, &lf_total) ||
                    ck_add(lf_useful, n, &lf_useful))
                    return -1;
            }
        }
        i64 lf_q = lf_total / theta; /* theta >= 1 on sendable lanes */
        i64 lf_cycles = lf_useful < lf_q ? lf_useful : lf_q;
        i64 leftover, fc;
        if (ck_mul(lf_cycles, theta, &x) || ck_sub(lf_total, x, &leftover))
            return -1;
        if (leftover < 0)
            leftover = 0;
        if (ck_add(lower, leftover, &fc))
            return -1;
        if (fc > lam)
            fc = lam;
        /* w = sigma + (hp_cycles + lf_cycles + extra) * gd
         *     + (stb + fc * ms_len), Python's grouping */
        i64 tail;
        if (ck_add(hp_cycles, lf_cycles, &x) || ck_add(x, extra, &x) ||
            ck_mul(x, gd, &x) || ck_add(sigma, x, &w) ||
            ck_mul(fc, ms_len, &tail) || ck_add(stb, tail, &tail) ||
            ck_add(w, tail, &w))
            return -1;
        if (w >= cap) {
            s->last_w = cap;
            s->last_ok = 0;
            seed_slot[0] = t; /* pre-update window, as in Python */
            return 0;
        }
        if (w <= t) {
            if (seeded && w < t) { /* seed overshot: replay cold */
                seeded = 0;
                t = ct;
                iter = 0;
                continue;
            }
            s->last_w = w;
            s->last_ok = 1;
            seed_slot[0] = w;
            return 0;
        }
        t = w;
    }
}

/* ------------------------------------------------------------------ */
/* the FPS staircase maximisation (fps.resolved_busy_window,           */
/* prune=True -- value- and flag-exact vs the unpruned path)           */
/* ------------------------------------------------------------------ */

/* The window that `demand` units of slack open from instant t0 whose
 * period offset has `offset` slack before it: Python's
 * whole, rem = divmod(offset + demand - 1, slack);
 * whole * period + gap_ends[k] - (through[k] - rem - 1) - t0. */
static int
stair_window(const Avail *av, i64 offset, i64 demand, i64 t0, i64 *out)
{
    i64 aa, w;
    if (ck_add(offset, demand, &aa) || ck_sub(aa, 1, &aa))
        return -1;
    i64 whole = aa / av->slack, rem = aa % av->slack;
    i64 k = bisect_gt(av->through, av->n_gaps, rem);
    /* |rem| < slack, so rem + 1 cannot overflow */
    if (ck_mul(whole, av->period, &w) || ck_add(w, av->gap_ends[k], &w) ||
        ck_sub(w, av->through[k], &w) || ck_add(w, rem + 1, &w) ||
        ck_sub(w, t0, out))
        return -1;
    return 0;
}

/* Interferer row's demand term at window `window`: count (0 when the
 * shifted window is empty) and count * wcet. */
static int
row_demand(const i64 *row, const i64 *J, i64 own_j, i64 window, i64 *count,
           i64 *demand)
{
    i64 jit, sv;
    if (row[2]) {
        if (ck_sub(own_j, row[0], &jit))
            return -1;
    } else {
        jit = J[row[3]];
    }
    if (ck_add(window, jit, &sv))
        return -1;
    *count = sv > 0 ? cdiv(sv, row[0]) : 0;
    return ck_mul(*count, row[1], demand) ? -1 : 0;
}

static int
eval_fps(const Act *act, AState *s, const i64 *J, i64 own_j, i64 cap,
         i64 *seed_arr, i64 *new_seeds)
{
    const Avail *av = act->av;
    i64 n_instants = av->n_instants;
    i64 wcet = act->wcet;
    i64 worst = 0;
    i64 conv_acc = 1;
    i64 bound_demand = -1, bound_activations = 0;
    i64 count, term;
    for (i64 i = 0; i < n_instants; i++)
        new_seeds[i] = -1; /* pruned/unreached instants keep no seed */
    for (i64 oi = 0; oi < n_instants; oi++) {
        i64 idx = av->eval_order[oi];
        i64 t0 = av->instants[idx];
        i64 offset = av->before[idx];
        i64 seed = seed_arr[idx];
        if (worst > 0) {
            if (bound_demand < 0) {
                /* one shared interference evaluation at the worst
                 * window, reused until the worst grows */
                bound_demand = wcet;
                bound_activations = 0;
                for (i64 r = 0; r < act->n_int; r++) {
                    if (row_demand(act->rows + 4 * r, J, own_j, worst,
                                   &count, &term) ||
                        ck_add(bound_demand, term, &bound_demand) ||
                        ck_add(bound_activations, count, &bound_activations))
                        return -1;
                }
            }
            /* bound_activations + 2 <= MAX, without the addition */
            if (bound_activations <= MAX_FIXPOINT_ITERATIONS - 2) {
                i64 w_bound;
                if (stair_window(av, offset, bound_demand, t0, &w_bound))
                    return -1;
                if (w_bound <= worst)
                    continue; /* instant provably cannot beat worst */
            }
        }
        int seeded = seed > wcet; /* -1 sentinel: never seeded */
        i64 demand = seeded ? seed : wcet;
        i64 window = 0;
        i64 iter = 0;
        i64 w_res, d_res, ok_res;
        for (;;) {
            if (iter >= MAX_FIXPOINT_ITERATIONS) {
                if (seeded) { /* uncertified seed: replay cold */
                    seeded = 0;
                    demand = wcet;
                    iter = 0;
                    continue;
                }
                w_res = window;
                ok_res = 0;
                d_res = -1; /* a truncated demand seeds nothing */
                break;
            }
            iter++;
            if (stair_window(av, offset, demand, t0, &window))
                return -1;
            if (window >= cap) {
                w_res = cap;
                ok_res = 0;
                d_res = demand;
                break;
            }
            i64 new_demand = wcet;
            for (i64 r = 0; r < act->n_int; r++) {
                if (row_demand(act->rows + 4 * r, J, own_j, window, &count,
                               &term) ||
                    ck_add(new_demand, term, &new_demand))
                    return -1;
            }
            if (new_demand == demand) {
                w_res = window;
                ok_res = 1;
                d_res = demand;
                break;
            }
            if (seeded && new_demand < demand) { /* seed overshot */
                seeded = 0;
                demand = wcet;
                iter = 0;
                continue;
            }
            demand = new_demand;
        }
        new_seeds[idx] = d_res;
        if (w_res >= cap) { /* whole maximisation returns capped */
            memcpy(seed_arr, new_seeds, (size_t)n_instants * sizeof(i64));
            s->last_w = cap;
            s->last_ok = 0;
            return 0;
        }
        if (w_res > worst) {
            worst = w_res;
            bound_demand = -1;
        }
        conv_acc = conv_acc && ok_res;
    }
    memcpy(seed_arr, new_seeds, (size_t)n_instants * sizeof(i64));
    s->last_w = worst;
    s->last_ok = conv_acc;
    return 0;
}

/* ------------------------------------------------------------------ */
/* the holistic Gauss-Seidel fix point, one lane at a time             */
/* ------------------------------------------------------------------ */

/* The lane walks the plan's components in order, each a slice of
 * plan->acts with DYN and FPS interleaved (act->kind picks the update):
 * an acyclic component gets one pass, a cyclic one passes until a pass
 * changes nothing, at most max_iters of them (running out clears the
 * conv flag, and the walk goes on).  The blob lists the components and
 * their members exactly as the Python context's schedule does, so each
 * lane follows the oracle's trajectory pass for pass.  Response times
 * land in Wl by row; the Python caller assembles the result dict in the
 * oracle's item order.  Returns the lane's conv flag: 1 converged, 0
 * not, -1 an int64 overflow (Wl is then garbage and the caller reruns
 * the lane on the oracle). */

static i64
run_lane(const Plan *plan, i64 cap, i64 n_ms, i64 gd, i64 stb, i64 ms_len,
         i64 fault_k, i64 max_iters, i64 *Wl, i64 *J, i64 *seeds,
         i64 *new_seeds, AState *st)
{
    i64 n_rows = plan->n_rows;
    i64 n_acts = plan->n_acts;
    for (i64 r = 0; r < n_rows; r++)
        Wl[r] = plan->w0[r];
    if (fault_k) {
        /* _fix_point's static k-error bump, before the first pass */
        i64 bump, inflated;
        if (ck_mul(fault_k, gd, &bump))
            return -1;
        for (i64 k = 0; k < plan->n_fault; k++) {
            i64 r = plan->fault_rows[k];
            if (ck_add(Wl[r], bump, &inflated))
                return -1;
            Wl[r] = inflated < cap ? inflated : cap;
        }
    }
    memset(J, 0, (size_t)n_rows * sizeof(i64));
    for (i64 a = 0; a < n_acts; a++) {
        const Act *act = &plan->acts[a];
        AState *as = &st[a];
        as->has = as->dirty = as->w_written = 0;
        as->last_own = as->last_w = as->last_ok = 0;
        if (act->kind == 0) {
            /* _dyn_views per-lane scalar derivations:
             * p_latest = n_ms - largest + 1, lam = p_latest - 1,
             * theta = lam - f + 2, sigma = gd - stb - (f - 1) * ms_len */
            i64 f = act->frame_id, p_latest, x;
            if (ck_sub(n_ms, act->largest, &as->lam) ||
                ck_add(as->lam, 1, &p_latest) ||
                ck_sub(as->lam, f, &x) || ck_add(x, 2, &as->theta) ||
                ck_sub(f, 1, &x) || ck_mul(x, ms_len, &x) ||
                ck_sub(gd, stb, &as->sigma) ||
                ck_sub(as->sigma, x, &as->sigma))
                return -1;
            as->sendable = f <= p_latest;
            as->extra = 0;
            if (fault_k && as->sendable) {
                i64 per_error = 1;
                if (act->max_adjusted > 0 &&
                    ck_add(2, act->max_adjusted / as->theta, &per_error))
                    return -1;
                if (ck_mul(fault_k, per_error, &as->extra))
                    return -1;
            }
        }
        i64 *sd = seeds + act->seed_off;
        for (i64 k = 0; k < act->seed_len; k++)
            sd[k] = -1;
    }
    i64 conv_flag = 1;
    for (i64 c = 0; c < plan->n_comps; c++) {
        const i64 *comp = plan->comps + 3 * c;
        i64 passes = comp[2] ? max_iters : 1, it;
        for (it = 0; it < passes; it++) {
            i64 changed = 0;
            for (i64 a = comp[0]; a < comp[1]; a++) {
                const Act *act = &plan->acts[a];
                AState *as = &st[a];
                i64 j;
                if (act->kind == 0) {
                    j = Wl[act->sender_row];
                } else {
                    j = act->release;
                    for (i64 k = 0; k < act->n_preds; k++) {
                        i64 v = Wl[act->preds[k]];
                        if (v > j)
                            j = v;
                    }
                }
                if (J[act->row] != j) {
                    J[act->row] = j;
                    changed = 1;
                    for (i64 k = 0; k < act->n_deps; k++)
                        st[act->deps[k]].dirty = 1;
                }
                if (!as->has || as->dirty ||
                    (act->own_sensitive && as->last_own != j)) {
                    if (act->kind == 0) {
                        if (as->sendable) {
                            if (eval_dyn(act, as, J, j, cap, gd, stb, ms_len,
                                         seeds + act->seed_off))
                                return -1;
                        } else { /* never sendable: certain miss */
                            as->last_w = 0;
                            as->last_ok = 0;
                        }
                    } else if (eval_fps(act, as, J, j, cap,
                                        seeds + act->seed_off, new_seeds)) {
                        return -1;
                    }
                    as->dirty = 0;
                    as->last_own = j;
                    as->has = 1;
                }
                conv_flag = conv_flag && as->last_ok;
                i64 value;
                if (act->kind == 0 && !as->sendable) {
                    value = cap;
                } else {
                    if (ck_add(j, as->last_w, &value) ||
                        (act->kind == 0 && ck_add(value, act->ct, &value)))
                        return -1;
                    if (value > cap)
                        value = cap;
                }
                /* first insertion into wcrt is always a change */
                if (!as->w_written || Wl[act->row] != value) {
                    Wl[act->row] = value;
                    as->w_written = 1;
                    changed = 1;
                }
            }
            if (!changed || !comp[2])
                break;
        }
        if (it == passes) /* the Python for-else: exhaustion */
            conv_flag = 0;
    }
    return conv_flag;
}

static PyObject *
native_run_batch(PyObject *self, PyObject *args)
{
    PyObject *capsule;
    Py_buffer caps_b, nms_b, gd_b, stb_b, W_b, conv_b;
    long long ms_len, fault_k, max_iters;
    if (!PyArg_ParseTuple(args, "Oy*y*y*y*LLLw*w*", &capsule, &caps_b,
                          &nms_b, &gd_b, &stb_b, &ms_len, &fault_k,
                          &max_iters, &W_b, &conv_b))
        return NULL;
    PyObject *result = NULL;
    i64 *J = NULL, *seeds = NULL, *new_seeds = NULL;
    AState *st = NULL;
    Plan *plan = (Plan *)PyCapsule_GetPointer(capsule, CAPSULE_NAME);
    if (!plan)
        goto done;
    i64 L = (i64)(caps_b.len / 8);
    if (caps_b.len % 8 || nms_b.len != caps_b.len ||
        gd_b.len != caps_b.len || stb_b.len != caps_b.len ||
        conv_b.len != caps_b.len ||
        W_b.len != (Py_ssize_t)(L * plan->n_rows * 8)) {
        PyErr_SetString(PyExc_ValueError,
                        "run_batch buffer sizes disagree with the plan");
        goto done;
    }
    if (max_iters < 1) { /* no pass at all would report w0 as a result */
        PyErr_SetString(PyExc_ValueError,
                        "max_holistic_iterations must be >= 1");
        goto done;
    }
    J = (i64 *)malloc((size_t)(plan->n_rows ? plan->n_rows : 1) * 8);
    seeds = (i64 *)malloc((size_t)(plan->seed_total ? plan->seed_total : 1)
                          * 8);
    new_seeds = (i64 *)malloc(
        (size_t)(plan->max_instants ? plan->max_instants : 1) * 8);
    st = (AState *)malloc((size_t)(plan->n_acts ? plan->n_acts : 1)
                          * sizeof(AState));
    if (!J || !seeds || !new_seeds || !st) {
        PyErr_NoMemory();
        goto done;
    }
    const i64 *caps = caps_b.buf, *n_ms = nms_b.buf, *gd = gd_b.buf,
              *stb = stb_b.buf;
    i64 *W = W_b.buf, *conv = conv_b.buf;
    Py_BEGIN_ALLOW_THREADS
    for (i64 lane = 0; lane < L; lane++)
        conv[lane] = run_lane(plan, caps[lane], n_ms[lane], gd[lane],
                              stb[lane], (i64)ms_len, (i64)fault_k,
                              (i64)max_iters, W + lane * plan->n_rows, J,
                              seeds, new_seeds, st);
    Py_END_ALLOW_THREADS
    result = Py_None;
    Py_INCREF(result);
done:
    free(J);
    free(seeds);
    free(new_seeds);
    free(st);
    PyBuffer_Release(&caps_b);
    PyBuffer_Release(&nms_b);
    PyBuffer_Release(&gd_b);
    PyBuffer_Release(&stb_b);
    PyBuffer_Release(&W_b);
    PyBuffer_Release(&conv_b);
    return result;
}

/* ---- The OBC/CF curve-fit scorer (repro.core.dynlen._score_candidates).
 *
 * One estimate round: every row's Newton polynomial at every open DYN
 * length (NewtonCurves.evaluate), rounded and clamped to [0, 10^12]
 * (dynlen._clamped), then Eq. (5) per length (cost.cost_values).  The
 * floats equal the Python oracle's bit for bit:
 *   - Horner runs from each row's trimmed top down to c0 as v * d + c,
 *     d = x - node_j, one double op at a time, in the Python order (its
 *     multi-step passes and shared tails change the loops, not the
 *     ops).  The build passes -ffp-contract=off, so no multiply-add is
 *     fused, and the scorer hands every round back (returns None)
 *     unless FLT_EVAL_METHOD == 0 and the build is not -ffast-math, so
 *     no excess precision or reassociation creeps in;
 *   - nearbyint in the default rounding mode is Python's round() of a
 *     float (half to even); a value that is not finite hands the round
 *     back, and Python's round() raises on it as before;
 *   - the clamped values are integers, so the Eq. (5) sums are exact in
 *     checked int64 (an overflow hands the round back), and int64 ->
 *     double rounds to nearest-even like Python's float(int).
 */
#if defined(__FAST_MATH__) || !defined(FLT_EVAL_METHOD) || FLT_EVAL_METHOD != 0
#define SCORE_EXACT 0
#else
#define SCORE_EXACT 1
#endif
#define CLAMP_MAX ((i64)1000000000000LL)

/* Fill costs[0..L) and yield 1, or yield 0 to hand the round back. */
static int
score_lanes(const double *coeffs, const i64 *tops, const double *nodes,
            const i64 *deadlines, i64 rows, i64 n, const double *xs, i64 L,
            double *d, double *costs)
{
    i64 total_deadline = 0;
    for (i64 i = 0; i < rows; i++)
        if (ck_add(total_deadline, deadlines[i], &total_deadline))
            return 0;
    for (i64 k = 0; k < L; k++) {
        for (i64 j = 0; j < n; j++)
            d[j] = xs[k] - nodes[j];
        i64 total = 0, f1 = 0, f2, miss;
        for (i64 i = 0; i < rows; i++) {
            const double *c = coeffs + i * n;
            double v = c[tops[i]];
            for (i64 j = tops[i] - 1; j >= 0; j--)
                v = v * d[j] + c[j];
            if (!isfinite(v))
                return 0;
            double r = nearbyint(v);
            i64 clamped = r > 0 ? (r < (double)CLAMP_MAX ? (i64)r : CLAMP_MAX)
                                : 0;
            if (ck_add(total, clamped, &total))
                return 0;
            if (clamped > deadlines[i] &&
                (ck_sub(clamped, deadlines[i], &miss) ||
                 ck_add(f1, miss, &f1)))
                return 0;
        }
        if (ck_sub(total, total_deadline, &f2))
            return 0;
        costs[k] = f1 > 0 ? (double)f1 : (double)f2;
    }
    return 1;
}

static PyObject *
native_score_curves(PyObject *self, PyObject *args)
{
    Py_buffer cf_b, top_b, node_b, dl_b, x_b;
    if (!PyArg_ParseTuple(args, "y*y*y*y*y*", &cf_b, &top_b, &node_b, &dl_b,
                          &x_b))
        return NULL;
    PyObject *result = NULL;
    double *d = NULL, *costs = NULL;
    i64 rows = (i64)(top_b.len / 8), n = (i64)(node_b.len / 8),
        L = (i64)(x_b.len / 8);
    if (top_b.len % 8 || node_b.len % 8 || x_b.len % 8 || n < 1 ||
        dl_b.len != top_b.len || cf_b.len % (8 * n) ||
        cf_b.len / (8 * n) != rows) {
        PyErr_SetString(PyExc_ValueError,
                        "score_curves buffer sizes disagree");
        goto done;
    }
    const i64 *tops = top_b.buf;
    for (i64 i = 0; i < rows; i++)
        if (tops[i] < 0 || tops[i] >= n) {
            PyErr_SetString(PyExc_ValueError,
                            "score_curves top outside its row");
            goto done;
        }
    if (!SCORE_EXACT || rows == 0) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    d = (double *)malloc((size_t)n * sizeof(double));
    costs = (double *)malloc((size_t)(L ? L : 1) * sizeof(double));
    if (!d || !costs) {
        PyErr_NoMemory();
        goto done;
    }
    int ok;
    Py_BEGIN_ALLOW_THREADS
    ok = score_lanes(cf_b.buf, tops, node_b.buf, dl_b.buf, rows, n, x_b.buf,
                     L, d, costs);
    Py_END_ALLOW_THREADS
    if (!ok) {
        result = Py_None;
        Py_INCREF(result);
        goto done;
    }
    result = PyList_New((Py_ssize_t)L);
    for (i64 k = 0; result && k < L; k++) {
        PyObject *cost = PyFloat_FromDouble(costs[k]);
        if (!cost)
            Py_CLEAR(result);
        else
            PyList_SET_ITEM(result, (Py_ssize_t)k, cost);
    }
done:
    free(d);
    free(costs);
    PyBuffer_Release(&cf_b);
    PyBuffer_Release(&top_b);
    PyBuffer_Release(&node_b);
    PyBuffer_Release(&dl_b);
    PyBuffer_Release(&x_b);
    return result;
}

static PyMethodDef native_methods[] = {
    {"build_plan", native_build_plan, METH_VARARGS,
     "build_plan(blob: bytes) -> capsule\n\n"
     "Parse a packed int64 group-plan blob (see "
     "repro.analysis.backend.native) into the C plan the kernels run."},
    {"run_batch", native_run_batch, METH_VARARGS,
     "run_batch(plan, caps, n_minislots, gd_cycle, st_bus, ms_len, "
     "fault_k, max_holistic_iterations, W, conv) -> None\n\n"
     "Advance every lane's full holistic fix point (at most "
     "max_holistic_iterations passes per cyclic component); W is the "
     "(L, n_rows) "
     "int64 response-time buffer (filled in place), conv the per-lane "
     "flags: 1 converged, 0 not converged, -1 int64 overflow (the lane's "
     "W row is then meaningless)."},
    {"score_curves", native_score_curves, METH_VARARGS,
     "score_curves(coeffs, tops, nodes, deadlines, xs) -> list | None\n\n"
     "Eq. (5) per point of xs (float64) over the rounded, clamped values "
     "of every Newton row: coeffs (float64, rows x len(nodes), row-major), "
     "tops (int64 Horner start per row), nodes (float64), deadlines "
     "(int64 per row).  None hands the round back to the Python scorer "
     "(a value not finite, an int64 overflow, no rows, or a build "
     "without IEEE double evaluation)."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro._native",
    "Compiled fix-point kernels and curve-fit scorer of "
    "AnalysisOptions.backend=\"native\".",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    return PyModule_Create(&native_module);
}

"""BENCH -- incremental analysis engine (shared AnalysisContext).

Measures the invariance tiers of the incremental analysis engine on the
OBC/EE DYN-length sweep of the Fig. 9 workload -- the paper's hottest
loop (up to 1024 exact analyses per static-segment variant):

* ``seed``     -- the seed repo's behaviour: every candidate recomputes
  ancestor closures, priorities, the schedule table, availability
  patterns and the per-iteration interference sets from scratch (a
  faithful reimplementation kept here as the reference baseline; it
  doubles as a correctness oracle).
* ``cold``     -- the current engine with a fresh ``AnalysisContext``
  per candidate (per-system invariants rebuilt each time).
* ``warm``     -- one shared ``AnalysisContext`` across the sweep (the
  configuration every optimiser now uses through ``Evaluator``).
* ``parallel`` -- warm context + the opt-in process pool
  (``BusOptimisationOptions.parallel_workers``).  Reported but not
  asserted: wall-clock gains require >1 CPU, while determinism is
  asserted everywhere.

A second, **pure-DYN** scenario (TT graphs collapsed onto single nodes,
so the whole sweep shares one schedule-cache entry) times the warm
Python path on the widest batch the compiled backend sees (see
``run_pure_dyn``).

When the compiled ``repro._native`` extension is built, a
``native_batch`` generation rides both scenarios
(``AnalysisOptions(backend="native")``, the whole sweep through one
``analyse_batch`` call): it must be bit-identical to the Python oracle
and beat the warm Python path >= 2x on the pure-DYN sweep *and* on the
**ST-heavy** Fig. 9 sweep, where every cycle length is a distinct
schedule, so the compiled backend sees singleton lanes (see
``run_st_heavy_backends``).  Without the extension the native
generation and its assertions are skipped with a note.

Emits ``benchmarks/results/BENCH_incremental_analysis.json``.  The quick
smoke mode (default) finishes in well under 30 s; set
``REPRO_BENCH_FULL=1`` for a paper-scale sweep.
"""

from __future__ import annotations

import os
import time

from repro.analysis import (
    AnalysisContext,
    AnalysisOptions,
    AnalysisResult,
    NodeAvailability,
    analyse_system,
    analysis_cap,
    build_schedule,
    hp_tasks,
    static_response_times,
    wrap_busy_intervals,
)
from repro.analysis.backend import native_or_none
from repro.analysis.context import ancestor_sets
from repro.core.bbc import basic_configuration
from repro.core.cost import cost_function
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.synth import paper_suite

from benchmarks._report import env_int, full_scale, report, report_json


# ----------------------------------------------------------------------
# Reference: the seed repo's per-candidate recompute-everything loop,
# with the seed's *inner* loops pinned verbatim (availability gaps
# recomputed per advance, interference sets re-derived per fix-point
# call, per-iteration period/minislot lookups) so the baseline keeps the
# seed's cost profile even as the library's shared code gets faster.
# ----------------------------------------------------------------------
from repro.analysis import WcrtResult, interference_count, interference_sets
from repro.analysis.fill import max_filled_cycles
from repro.analysis.fps import MAX_FIXPOINT_ITERATIONS


class _SeedAvailability(NodeAvailability):
    """NodeAvailability with the seed's ``advance`` (gaps per call)."""

    def _gaps(self):
        gaps = []
        prev = 0
        for s, e in self.busy:
            if s > prev:
                gaps.append((prev, s))
            prev = e
        if prev < self.period:
            gaps.append((prev, self.period))
        return gaps

    def advance(self, t0, demand):
        if demand == 0:
            return t0
        if self.slack_per_period == 0:
            return None
        remaining = demand
        whole = (remaining - 1) // self.slack_per_period
        t = t0 + whole * self.period
        remaining -= whole * self.slack_per_period
        while remaining > 0:
            base = (t // self.period) * self.period
            x = t - base
            for s, e in self._gaps():
                lo = max(s, x)
                if lo >= e:
                    continue
                room = e - lo
                if room >= remaining:
                    return base + lo + remaining
                remaining -= room
            t = base + self.period
        return t


def _seed_busy_window_at(
    task, interferers, availability, jitters, period_of, cap, t0,
    own_jitter, ancestors,
):
    demand = task.wcet
    window = 0
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        end = availability.advance(t0, demand)
        if end is None:
            return cap, False
        window = end - t0
        if window >= cap:
            return cap, False
        new_demand = task.wcet
        for j in interferers:
            count = interference_count(
                window, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
            new_demand += count * j.wcet
        if new_demand == demand:
            return window, True
        demand = new_demand
    return window, False


def _seed_fps_task_busy_window(
    task, interferers, availability, jitters, period_of, cap,
    own_jitter=0, ancestors=frozenset(),
):
    candidates = [0] + availability.busy_starts()
    worst = 0
    converged = True
    for t0 in candidates:
        window, ok = _seed_busy_window_at(
            task, interferers, availability, jitters, period_of, cap, t0,
            own_jitter, ancestors,
        )
        if window >= cap:
            return WcrtResult(value=cap, converged=False)
        worst = max(worst, window)
        converged = converged and ok
    return WcrtResult(value=worst, converged=converged)


def _seed_dyn_message_busy_window(
    message, config, system, jitters, period_of, cap, own_jitter,
    ancestors, fill_strategy,
):
    f = config.frame_id_of(message.name)
    node = system.sender_node(message)
    p_latest = config.p_latest_tx(node, system)
    if f > p_latest or p_latest < 1:
        return WcrtResult(value=cap, converged=False)
    sets = interference_sets(message, config, system)
    ms_len = config.gd_minislot
    lam = p_latest - 1
    theta = lam - f + 2
    sigma_m = config.gd_cycle - config.st_bus - (f - 1) * config.gd_minislot
    t = config.message_ct(message)
    w = 0
    for _ in range(MAX_FIXPOINT_ITERATIONS):
        hp_cycles = 0
        for j in sets.hp:
            hp_cycles += interference_count(
                t, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
        lf_items = []
        for j in sets.lf:
            n = interference_count(
                t, period_of(j.name), jitters.get(j.name, 0),
                j.name in ancestors, own_jitter,
            )
            lf_items.extend([config.minislots_needed(j) - 1] * n)
        lf_cycles = max_filled_cycles(lf_items, theta, fill_strategy)
        leftover = max(0, sum(lf_items) - lf_cycles * theta)
        final_consumed = min(lam, sets.lower_slots + leftover)
        w_final = config.st_bus + final_consumed * ms_len
        w = sigma_m + (hp_cycles + lf_cycles) * config.gd_cycle + w_final
        if w >= cap:
            return WcrtResult(value=cap, converged=False)
        if w <= t:
            return WcrtResult(value=w, converged=True)
        t = w
    return WcrtResult(value=w, converged=False)


def _seed_dyn_message_wcrt(
    message, config, system, jitters, period_of, cap, ancestors,
    fill_strategy,
):
    own_jitter = jitters.get(message.name, 0)
    window = _seed_dyn_message_busy_window(
        message, config, system, jitters, period_of, cap, own_jitter,
        ancestors, fill_strategy,
    )
    value = min(cap, own_jitter + window.value + config.message_ct(message))
    return WcrtResult(value=value, converged=window.converged)


def seed_reference_analyse(system, config, options=None) -> AnalysisResult:
    """The holistic analysis exactly as the seed repo structured it.

    Every quantity is derived per call and the fix point re-derives the
    interference sets on every iteration -- the cost profile the
    incremental engine eliminates.  Kept as the benchmark baseline *and*
    as an independent oracle: the engine's results must stay
    bit-identical to this loop.
    """
    options = options or AnalysisOptions()
    app = system.application
    try:
        config.validate_for(system)
    except ConfigurationError:
        return analyse_system(system, config, options)
    try:
        table = build_schedule(system, config, options.schedule)
    except SchedulingError:
        return analyse_system(system, config, options)

    cap = analysis_cap(system, config, options.cap_factor)
    static_wcrt = static_response_times(app, table)
    availability = {
        node: _SeedAvailability(
            wrap_busy_intervals(table.busy_intervals(node), table.horizon),
            table.horizon,
        )
        for node in system.nodes
    }
    fps_by_node = {
        node: sorted(
            (t for t in system.tasks_on(node) if t.is_fps),
            key=lambda t: (t.priority, t.name),
        )
        for node in system.nodes
    }
    period_of = app.period_of
    ancestors = ancestor_sets(app)

    wcrt = dict(static_wcrt)
    jitters = {}
    converged = True
    for _ in range(options.max_holistic_iterations):
        changed = False
        for m in app.dyn_messages():
            g = app.graph_of(m.name)
            sender = g.task(m.sender)
            j_m = wcrt.get(sender.name, 0)
            if jitters.get(m.name, 0) != j_m:
                jitters[m.name] = j_m
                changed = True
            result = _seed_dyn_message_wcrt(
                m, config, system, jitters, period_of, cap,
                ancestors=ancestors.get(m.name, frozenset()),
                fill_strategy=options.dyn_fill_strategy,
            )
            converged = converged and result.converged
            if wcrt.get(m.name) != result.value:
                wcrt[m.name] = result.value
                changed = True
        for node in system.nodes:
            fps = fps_by_node[node]
            for task in fps:
                g = app.graph_of(task.name)
                j_i = task.release
                for pred in g.predecessors(task.name):
                    j_i = max(j_i, wcrt.get(pred, 0))
                if jitters.get(task.name, 0) != j_i:
                    jitters[task.name] = j_i
                    changed = True
                window = _seed_fps_task_busy_window(
                    task,
                    hp_tasks(task, fps),
                    availability[node],
                    jitters,
                    period_of,
                    cap,
                    own_jitter=j_i,
                    ancestors=ancestors.get(task.name, frozenset()),
                )
                converged = converged and window.converged
                r_i = min(cap, j_i + window.value)
                if wcrt.get(task.name) != r_i:
                    wcrt[task.name] = r_i
                    changed = True
        if not changed:
            break
    else:
        converged = False

    cost = cost_function(app, wcrt)
    return AnalysisResult(
        config=config,
        feasible=True,
        schedulable=cost.schedulable and converged,
        converged=converged,
        cost=cost,
        wcrt=wcrt,
        table=table,
    )


# ----------------------------------------------------------------------
# Workload: the OBC/EE DYN-length sweep on a Fig. 9 system.
# ----------------------------------------------------------------------
_cache = {}


def _sweep_configs():
    n_nodes = env_int("REPRO_BENCH_INC_NODES", 4)
    points = env_int(
        "REPRO_BENCH_INC_POINTS", 192 if full_scale() else 64
    )
    system = paper_suite(n_nodes, count=1, seed=23)[0]
    options = BusOptimisationOptions(ee_max_dyn_points=points)
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    configs = [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]
    return system, options, configs


def _pure_dyn_system(n_nodes: int, seed: int):
    """A Fig. 9 system with its TT graphs collapsed onto single nodes.

    Every time-triggered graph keeps its SCS tasks (so the nodes retain
    rich static busy patterns) but is remapped onto the node that
    already hosts most of its tasks, turning its ST messages into
    same-node precedences.  The resulting application sends **only DYN
    messages**, so the schedule key drops ``gd_cycle`` and the whole
    DYN-length sweep shares one schedule-cache entry -- the widest batch
    the compiled backend sees.
    """
    import dataclasses
    from collections import Counter

    from repro.model.application import Application
    from repro.model.graph import TaskGraph
    from repro.model.system import System

    base = paper_suite(n_nodes, count=1, seed=seed)[0]
    graphs = []
    for g in base.application.graphs:
        if not any(m.is_static for m in g.messages):
            graphs.append(g)
            continue
        counts = Counter(t.node for t in g.tasks)
        target = max(sorted(counts), key=lambda n: counts[n])
        tasks = tuple(dataclasses.replace(t, node=target) for t in g.tasks)
        precedences = tuple(g.precedences) + tuple(
            (m.sender, r) for m in g.messages for r in m.receivers
        )
        graphs.append(
            TaskGraph(
                name=g.name,
                period=g.period,
                deadline=g.deadline,
                tasks=tasks,
                messages=(),
                precedences=precedences,
            )
        )
    app = Application(base.application.name + "_pure_dyn", tuple(graphs))
    return System(base.nodes, app)


def _pure_dyn_configs():
    n_nodes = env_int("REPRO_BENCH_DOM_NODES", 4)
    # 256 points (up from 96): wide batches are where the array backend's
    # lockstep evaluation amortises, and the longer per-mode samples keep
    # the asserted ratios out of scheduler-noise territory on busy hosts.
    points = env_int(
        "REPRO_BENCH_DOM_POINTS", 512 if full_scale() else 256
    )
    system = _pure_dyn_system(n_nodes, seed=23)
    assert not tuple(system.application.st_messages()), "scenario must be pure-DYN"
    options = BusOptimisationOptions(ee_max_dyn_points=points)
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    configs = [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]
    return system, configs


def _make_batch(system, backend):
    """A fresh-context maker whose analyser takes the whole sweep in one
    ``analyse_batch`` call (see :func:`_time_interleaved`)."""

    def make():
        ctx = AnalysisContext(system, AnalysisOptions(backend=backend))

        def run(cfgs):
            return ctx.analyse_batch(cfgs)

        run.batched = True
        return run

    return make


def run_pure_dyn():
    """Time the warm Python path (and the compiled backend, when built)
    on the pure-DYN sweep; cached across test functions."""
    if "pure_dyn" in _cache:
        return _cache["pure_dyn"]
    system, configs = _pure_dyn_configs()

    # Eight interleaved rounds (up from the default six): the compiled
    # generation's ratio is taken between sweeps of a few milliseconds,
    # which needs a little more best-of convergence.
    makes = {"warm": lambda: AnalysisContext(system).analyse}
    if native_or_none() is not None:
        makes["native_batch"] = _make_batch(system, "native")
    timed = _time_interleaved(makes, configs, repeats=8)
    warm_s, warm_results = timed["warm"]
    native_s, native_results = timed.get("native_batch", (None, None))

    # Correctness, by direct comparison: (when the extension is built)
    # the native results against the Python ones, analysis by analysis.
    backend_mismatches = (
        None
        if native_results is None
        else _mismatches(native_results, warm_results)
    )

    out = {
        "system": system,
        "configs": configs,
        "seconds": {"warm": warm_s, "native_batch": native_s},
        "results": {"warm": warm_results, "native_batch": native_results},
        "backend_mismatches": backend_mismatches,
    }
    _cache["pure_dyn"] = out
    return out


def _mismatches(results, oracle) -> int:
    """Analyses whose full result -- WCRT insertion order and cost
    breakdown included -- differs from the oracle's."""

    def exact(r):
        return (
            r.feasible, r.schedulable, r.converged, r.failure, r.cost,
            tuple(r.wcrt.items()),
        )

    return sum(exact(a) != exact(b) for a, b in zip(results, oracle))


def _signature(result: AnalysisResult) -> tuple:
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        None if result.cost is None else result.cost.value,
        tuple(sorted(result.wcrt.items())),
    )


def _time_interleaved(makes, configs, repeats=6):
    """Best-of-*repeats* per mode, with the modes interleaved per round.

    Timing the modes back-to-back in blocks lets slow host drift (CPU
    governor ramps, co-tenant load) land entirely on whichever mode owns
    the slow window, which is exactly what a few-percent ratio assertion
    cannot afford.  Interleaving samples every mode in every epoch, so
    the per-mode best is taken over comparable conditions.  Noise on a
    shared host only ever *inflates* a sample, so the best-of floor
    converges to the true cost as rounds accumulate -- six rounds keep
    the few-percent ratios stable on a loaded 1-CPU container.  Returns
    ``{mode: (seconds, first run's results)}``.

    A make may return a callable with a truthy ``batched`` attribute;
    it is then handed the whole config list in one call (the array
    backend's sweep protocol) instead of being mapped per config, so
    its timing includes the one-off lowering, exactly as a campaign
    pays it.
    """
    best = {key: None for key in makes}
    results = {key: None for key in makes}
    for _ in range(max(1, repeats)):
        for key, make_analyse in makes.items():
            analyse = make_analyse()
            t0 = time.perf_counter()
            if getattr(analyse, "batched", False):
                out = analyse(configs)
            else:
                out = [analyse(c) for c in configs]
            elapsed = time.perf_counter() - t0
            if best[key] is None or elapsed < best[key]:
                best[key] = elapsed
            if results[key] is None:
                results[key] = out
    return {key: (best[key], results[key]) for key in makes}


def run_modes():
    """Time all modes over the sweep; cached across test functions."""
    if "modes" in _cache:
        return _cache["modes"]
    system, options, configs = _sweep_configs()

    # Untimed warm-up pass: the first sweep of a fresh process runs with
    # a cold allocator/branch-predictor (and, on busy hosts, a ramping
    # CPU governor), which would systematically penalise whichever mode
    # happens to be timed first.  The speedup *ratios* asserted below
    # compare modes separated by a few percent, so burn the drift here.
    warmup = AnalysisContext(system)
    for c in configs:
        warmup.analyse(c)

    t0 = time.perf_counter()
    seed_results = [seed_reference_analyse(system, c) for c in configs]
    seed_s = time.perf_counter() - t0

    timed = _time_interleaved(
        {
            "cold": lambda: (lambda c: analyse_system(system, c)),
            "warm": lambda: AnalysisContext(system).analyse,
        },
        configs,
    )
    cold_s, cold_results = timed["cold"]
    warm_s, warm_results = timed["warm"]

    workers = env_int("REPRO_BENCH_INC_WORKERS", min(8, os.cpu_count() or 1))
    import dataclasses

    par_options = dataclasses.replace(options, parallel_workers=workers)
    evaluator = Evaluator(system, par_options)
    t0 = time.perf_counter()
    par_results = evaluator.analyse_many(configs)
    par_s = time.perf_counter() - t0
    evaluator.close()

    modes = {
        "system": system,
        "configs": configs,
        "workers": workers,
        "evaluator": evaluator,
        "results": {
            "seed": (seed_s, seed_results),
            "cold": (cold_s, cold_results),
            "warm": (warm_s, warm_results),
            "parallel": (par_s, par_results),
        },
    }
    _cache["modes"] = modes
    return modes


def test_incremental_analysis_identical_and_fast():
    modes = run_modes()
    results = modes["results"]
    n = len(modes["configs"])

    # Correctness first: every mode bit-identical to the seed reference.
    seed_sigs = [_signature(r) for r in results["seed"][1]]
    for mode in ("cold", "warm", "parallel"):
        sigs = [_signature(r) for r in results[mode][1]]
        assert sigs == seed_sigs, f"{mode} diverged from the seed reference"

    seed_s = results["seed"][0]
    warm_s = results["warm"][0]
    cold_s = results["cold"][0]
    par_s = results["parallel"][0]
    pure_dyn = run_pure_dyn()
    pd_n = len(pure_dyn["configs"])
    pd_warm_s = pure_dyn["seconds"]["warm"]
    pd_native_s = pure_dyn["seconds"]["native_batch"]
    have_native = native_or_none() is not None
    if have_native:
        st_heavy = run_st_heavy_backends()
        sh_n = len(st_heavy["configs"])
        sh_warm_s = st_heavy["seconds"]["warm"]
        sh_native_s = st_heavy["seconds"]["native_batch"]
    payload = {
        "workload": {
            "sweep_points": n,
            "n_nodes": env_int("REPRO_BENCH_INC_NODES", 4),
            "parallel_workers": modes["workers"],
            "cpu_count": os.cpu_count(),
            "have_native": have_native,
        },
        "seconds": {
            "seed_behaviour": round(seed_s, 4),
            "cold_context": round(cold_s, 4),
            "warm_context": round(warm_s, 4),
            "parallel": round(par_s, 4),
        },
        "analyses_per_second": {
            "seed_behaviour": round(n / seed_s, 2),
            "cold_context": round(n / cold_s, 2),
            "warm_context": round(n / warm_s, 2),
            "parallel": round(n / par_s, 2),
        },
        "speedup_vs_seed": {
            "cold_context": round(seed_s / cold_s, 2),
            "warm_context": round(seed_s / warm_s, 2),
            "parallel": round(seed_s / par_s, 2),
        },
        # The pure-DYN sweep (no ST messages, one shared schedule-cache
        # entry): the compiled backend's widest batch.
        "pure_dyn": {
            "sweep_points": pd_n,
            "seconds": {
                "warm_context": round(pd_warm_s, 4),
                "native_batch": (
                    round(pd_native_s, 4) if have_native else None
                ),
            },
            "native_batch_vs_warm": (
                round(pd_warm_s / pd_native_s, 2) if have_native else None
            ),
            "backend_mismatches": pure_dyn["backend_mismatches"],
        },
        # The native backend's headline shape: singleton-lane groups on
        # the ST-heavy sweep (every cycle length a distinct schedule).
        "st_heavy_backends": (
            {
                "sweep_points": sh_n,
                "seconds": {
                    "warm_context": round(sh_warm_s, 4),
                    "native_batch": round(sh_native_s, 4),
                },
                "native_batch_vs_warm": round(sh_warm_s / sh_native_s, 2),
            }
            if have_native
            else None
        ),
    }
    report_json("BENCH_incremental_analysis", payload)
    report(
        "bench_incremental_analysis",
        [
            "Incremental analysis engine: OBC/EE DYN-length sweep "
            f"({n} points, 1 system)",
            f"{'mode':>14} | {'seconds':>8} | {'analyses/s':>10} | {'vs seed':>8}",
        ]
        + [
            f"{mode:>14} | {payload['seconds'][key]:>8.2f} | "
            f"{payload['analyses_per_second'][key]:>10.1f} | "
            f"{payload['speedup_vs_seed'].get(key, 1.0):>7.2f}x"
            for mode, key in (
                ("seed", "seed_behaviour"),
                ("cold", "cold_context"),
                ("warm", "warm_context"),
                ("parallel", "parallel"),
            )
        ]
        + [
            "warm shares one AnalysisContext across the sweep; parallel adds "
            f"{modes['workers']} workers on {os.cpu_count()} CPU(s)",
            f"pure-DYN sweep ({pd_n} points, one shared schedule): warm "
            f"{pd_warm_s:.2f} s",
        ]
        + (
            [
                f"native compiled backend: {pd_warm_s / pd_native_s:.2f}x "
                f"vs warm Python on the pure-DYN sweep; "
                f"{sh_warm_s / sh_native_s:.2f}x vs warm Python on the "
                f"ST-heavy singleton-lane sweep ({sh_n} points)",
            ]
            if have_native
            else ["native compiled backend: repro._native not built, skipped"]
        ),
    )

    # The headline claim: a warm context beats the seed behaviour >= 3x.
    assert seed_s / warm_s >= 3.0, (
        f"warm context only {seed_s / warm_s:.2f}x faster than seed behaviour"
    )


def run_st_heavy_backends():
    """Time warm Python vs the compiled backend on the ST-heavy sweep.

    The Fig. 9 OBC/EE sweep sends 11 ST messages, so every cycle length
    is a distinct schedule key: the compiled backend sees **singleton
    lanes**, and still wins because it runs each lane's whole holistic
    fix point in C.  Cached across test functions.
    """
    if "st_heavy" in _cache:
        return _cache["st_heavy"]
    system, options, configs = _sweep_configs()

    # Same untimed warm-up rationale as ``run_modes``.
    warmup = AnalysisContext(system)
    for c in configs:
        warmup.analyse(c)

    makes = {
        "warm": lambda: AnalysisContext(system).analyse,
        "native_batch": _make_batch(system, "native"),
    }
    timed = _time_interleaved(makes, configs, repeats=8)
    out = {
        "system": system,
        "configs": configs,
        "seconds": {key: timed[key][0] for key in makes},
        "results": {key: timed[key][1] for key in makes},
    }
    _cache["st_heavy"] = out
    return out


def test_native_backend_identical_and_fast():
    """The compiled backend's claims: bit identity on both sweep shapes
    (results, WCRT insertion order and costs, compared analysis by
    analysis), and >= 2x over the
    warm Python path on both the wide pure-DYN batch and the ST-heavy
    singleton-lane sweep."""
    if native_or_none() is None:
        print(
            "bench_incremental_analysis: repro._native not built; "
            "native backend claims skipped"
        )
        return
    st_heavy = run_st_heavy_backends()
    warm_sigs = [_signature(r) for r in st_heavy["results"]["warm"]]
    sigs = [_signature(r) for r in st_heavy["results"]["native_batch"]]
    assert sigs == warm_sigs, (
        "native_batch diverged from the warm Python path on the ST-heavy sweep"
    )

    pure_dyn = run_pure_dyn()
    warm_sigs = [_signature(r) for r in pure_dyn["results"]["warm"]]
    native_results = pure_dyn["results"]["native_batch"]
    assert [_signature(r) for r in native_results] == warm_sigs, (
        "native backend diverged from the Python oracle"
    )
    for py_r, nat_r in zip(pure_dyn["results"]["warm"], native_results):
        assert py_r.wcrt == nat_r.wcrt, "wcrt values diverged"
        assert list(py_r.wcrt) == list(nat_r.wcrt), (
            "wcrt insertion order diverged"
        )
        assert py_r.cost == nat_r.cost, "cost breakdowns diverged"
    assert pure_dyn["backend_mismatches"] == 0, (
        "native results differ from the Python ones"
    )

    st_warm_s = st_heavy["seconds"]["warm"]
    st_native_s = st_heavy["seconds"]["native_batch"]
    assert st_warm_s / st_native_s >= 2.0, (
        f"native backend only {st_warm_s / st_native_s:.2f}x faster than "
        "the warm Python path on the ST-heavy singleton-lane sweep"
    )
    pd_warm_s = pure_dyn["seconds"]["warm"]
    pd_native_s = pure_dyn["seconds"]["native_batch"]
    assert pd_warm_s / pd_native_s >= 2.0, (
        f"native backend only {pd_warm_s / pd_native_s:.2f}x faster than "
        "the warm Python path on the pure-DYN sweep"
    )


def test_optimisers_identical_serial_vs_parallel():
    """Fixed-seed optimiser outcomes are byte-identical with the pool on."""
    import dataclasses

    from repro.core import (
        GAOptions,
        SAOptions,
        optimise_bbc,
        optimise_ga,
        optimise_obc,
        optimise_sa,
    )

    system = paper_suite(3, count=1, seed=23)[0]
    serial = BusOptimisationOptions(
        max_dyn_points=16,
        ee_max_dyn_points=48,
        cf_candidates=64,
        max_extra_static_slots=1,
        max_slot_size_steps=1,
    )
    parallel = dataclasses.replace(serial, parallel_workers=2)

    def outcome(result):
        cfg = result.config
        return (
            result.cost,
            result.schedulable,
            result.evaluations,
            result.cache_hits,
            None if cfg is None else cfg.cache_key(),
            result.trace,
        )

    runners = (
        ("BBC", lambda o: optimise_bbc(system, o)),
        ("OBC/EE", lambda o: optimise_obc(system, o, "exhaustive")),
        ("OBC/CF", lambda o: optimise_obc(system, o, "curvefit")),
        ("SA", lambda o: optimise_sa(
            system, o, SAOptions(iterations=60, seed=9, restarts=2))),
        ("GA", lambda o: optimise_ga(
            system, o, GAOptions(population=6, generations=3, seed=5))),
    )
    for name, run in runners:
        assert outcome(run(serial)) == outcome(run(parallel)), (
            f"{name}: parallel run diverged from serial at fixed seed"
        )


if __name__ == "__main__":
    test_incremental_analysis_identical_and_fast()
    test_native_backend_identical_and_fast()
    test_optimisers_identical_serial_vs_parallel()
    print("bench_incremental_analysis: all checks passed")

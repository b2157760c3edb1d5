"""The optimiser workloads: ``ee-sweep``, ``cf-estimate``, ``sa-walk``.

Each runs ``repro.core.strategies.optimise`` over the pinned Fig. 9
system set, one fresh ``optimise()`` per system (evaluator and context
construction stay inside the timed region, as users pay them on every
run).  A *pass* is one optimisation of the whole set; the timed run
repeats passes until ``--seconds`` have elapsed (at least
``MIN_PASSES``).  Each ``optimise()`` is timed in units of the reference
job sampled while it runs (:class:`perfbench.common.SpeedSampler`), and
the set costs the sum of each system's median over the passes.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.holistic import analyse_system
from repro.core.strategies import StrategyOptions, optimise

from perfbench import common, layers
from perfbench.result import Outcome
from perfbench.spans import SpanRecorder

STRATEGIES = {"ee-sweep": "obc-ee", "cf-estimate": "obc-cf", "sa-walk": "sa"}
#: OBC/CF passes take 6-7 s on the host the benchmark was tuned on, so
#: at ``--seconds 15`` a median of two passes (their mean) would decide.
MIN_PASSES = 3


def strategy_options(strategy: str):
    if strategy == "sa":
        return common.sa_options().with_bus(common.bus_options())
    return StrategyOptions(bus=common.bus_options())


class Pass:
    """One optimisation of the whole set."""

    def __init__(self, start_ns: int, end_ns: int, results: list, calls=(), units=()):
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.results = results
        #: Seconds of each ``optimise()`` call, net of speed sampling.
        self.calls = list(calls)
        #: Mean reference-job seconds sampled during each call.
        self.units = list(units)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def ratio(self, i: int) -> float:
        """Call *i* in reference units."""
        return self.calls[i] / self.units[i]

    @property
    def evaluations(self) -> int:
        return sum(r.evaluations for r in self.results)

    def counts(self) -> Dict[str, int]:
        """The counts that must repeat exactly run after run."""
        return {
            "search.exact_analyses": self.evaluations,
            "search.cache_hits": sum(r.cache_hits for r in self.results),
            "dynlen.estimates": sum(
                1 for r in self.results for p in r.trace if not p.exact
            ),
        }

    def outcomes(self) -> list:
        return [(r.cost, r.schedulable, r.evaluations) for r in self.results]


def run_pass(
    systems: Sequence[tuple],
    strategy: str,
    options,
    on_system: Optional[Callable[[str], None]] = None,
    reference: bool = False,
) -> Pass:
    calls = []
    units = []
    results = []
    start = time.perf_counter_ns()
    for sid, system in systems:
        if on_system is not None:
            on_system(sid)
        if not reference:
            results.append(optimise(system, strategy, options))
            continue
        with common.SpeedSampler() as sampler:
            t0 = time.perf_counter_ns()
            results.append(optimise(system, strategy, options))
            t1 = time.perf_counter_ns()
        unit, sampling = sampler.between(t0, t1)
        calls.append((t1 - t0) / 1e9 - sampling)
        units.append(unit)
    return Pass(start, time.perf_counter_ns(), results, calls, units)


def verify(systems: Sequence[tuple], results: list) -> List[str]:
    """Re-analyse each best configuration from scratch; list mismatches."""
    mismatches = []
    for (sid, system), result in zip(systems, results):
        best = result.best
        if best is None:
            if not math.isinf(result.cost):
                mismatches.append(f"{sid}: no best but cost {result.cost}")
            continue
        fresh = analyse_system(system, best.config)
        if (fresh.cost_value, fresh.schedulable) != (
            best.cost_value,
            best.schedulable,
        ):
            mismatches.append(
                f"{sid}: optimiser says cost {best.cost_value} schedulable "
                f"{best.schedulable}, a fresh analysis says "
                f"{fresh.cost_value} {fresh.schedulable}"
            )
    return mismatches


def timed(workload: str, seed: int, seconds: float) -> Outcome:
    strategy = STRATEGIES[workload]
    options = strategy_options(strategy)
    systems = common.ordered(common.make_systems(common.SYSTEM_SET), seed)
    outcome = Outcome()
    setup = [common.timed_probe([workload]) for _ in range(common.SETUP_REPEATS)]

    passes: List[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(systems, strategy, options, reference=True))
        if len(passes) == 1:
            rss = common.peak_rss_mb()

    outcome.attempted = len(passes) * len(systems)
    first = passes[0]
    for later in passes[1:]:
        if later.counts() != first.counts() or later.outcomes() != first.outcomes():
            outcome.fail(f"pass results differ: {later.counts()} vs {first.counts()}")
    for mismatch in verify(systems, first.results):
        outcome.fail(mismatch)

    per_system = [
        statistics.median(p.ratio(i) for p in passes) for i in range(len(systems))
    ]
    optimise_ref = sum(per_system)
    outcome.metric("setup_s", statistics.median(setup), "s")
    outcome.metric("optimise_ref", optimise_ref, "ref")
    outcome.metric("analyses_per_ref", first.evaluations / optimise_ref, "1/ref")
    outcome.metric("latency_p50_ref", statistics.median(per_system), "ref")
    outcome.metric("peak_rss_mb", rss, "MB")
    unit_ms = 1000.0 * statistics.median(u for p in passes for u in p.units)
    outcome.note(
        f"{workload}: {len(passes)} passes over {len(systems)} systems "
        f"({', '.join(sid for sid, _ in systems)}), "
        f"pass seconds {[round(p.seconds, 3) for p in passes]}, "
        f"{first.evaluations} exact analyses per pass, "
        f"optimise() samples {len(passes) * len(systems)}, "
        f"reference job {unit_ms:.3f} ms"
    )
    return outcome


def traced(workload: str, seed: int, seconds: float) -> Outcome:
    """Untraced pass, traced pass, a traced repeat; per-layer metrics.

    One pass each whatever *seconds* says: the traced run measures
    where the time goes, not how much of it there is.
    """
    strategy = STRATEGIES[workload]
    options = strategy_options(strategy)
    systems = common.ordered(common.make_systems(common.SYSTEM_SET), seed)
    outcome = Outcome()

    plain = run_pass(systems, strategy, options)
    recorder = SpanRecorder()
    patcher, missing = layers.install(recorder, layers.ANALYSIS_BOUNDARIES)

    def label(sid: str) -> None:
        recorder.run_id = f"{workload}/{seed}/{sid}"

    # The repeat re-optimises the smallest system under tracing, so the
    # replay count can be compared run against run, too.
    smallest = [min(systems, key=lambda item: len(item[1].nodes))]
    try:
        traced_pass = run_pass(systems, strategy, options, label)
        recorder.run_id = f"{workload}/{seed}/repeat"
        repeat = run_pass(smallest, strategy, options)
    finally:
        patcher.restore()
    left = layers.wrapped_boundaries(layers.ANALYSIS_BOUNDARIES)
    if left:
        outcome.fail(f"wrappers left after the traced run: {left}")

    outcome.attempted = 2 * len(systems) + 1
    main = [s for s in recorder.spans if not s[2].endswith("/repeat")]
    if traced_pass.counts() != plain.counts() or traced_pass.outcomes() != plain.outcomes():
        outcome.fail(
            f"tracing changed the run: {traced_pass.counts()} vs {plain.counts()}"
        )
    smallest_id = smallest[0][0]
    first_run = [s for s in main if s[2].endswith("/" + smallest_id)]
    repeat_run = [s for s in recorder.spans if s[2].endswith("/repeat")]
    index = [sid for sid, _ in systems].index(smallest_id)
    once = Pass(0, 0, [traced_pass.results[index]]).counts()
    once["scheduler.replays"] = layers.span_metrics(first_run)["scheduler.replays"]
    again = repeat.counts()
    again["scheduler.replays"] = layers.span_metrics(repeat_run)["scheduler.replays"]
    if once != again:
        outcome.fail(f"repeat counts differ: {again} vs {once}")
    for mismatch in verify(systems, traced_pass.results):
        outcome.fail(mismatch)

    values = layers.span_metrics(main)
    counts = traced_pass.counts()
    values.update(counts)
    hits = counts["search.cache_hits"]
    values["search.cache_hit_ratio"] = hits / max(1, hits + counts["search.exact_analyses"])
    values["trace.overhead_ratio"] = traced_pass.seconds / plain.seconds
    values["trace.residual_s"] = layers.uncovered_s(
        main, traced_pass.start_ns, traced_pass.end_ns
    )
    values["trace.missing_boundaries"] = len(missing)
    outcome.layer_values = values
    outcome.spans = recorder
    outcome.note(
        f"{workload}: untraced pass {plain.seconds:.3f} s, traced pass "
        f"{traced_pass.seconds:.3f} s, {len(recorder.spans)} spans"
        + (f", missing boundaries {missing}" if missing else "")
    )
    return outcome

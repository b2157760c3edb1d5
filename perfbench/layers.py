"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each boundary is wrapped at the name its caller actually looks up: the
analysis context calls ``repro.analysis.context._fps_busy_window``, not
``repro.analysis.fps.seeded_busy_window``, so that is the attribute the
traced run swaps.  A boundary whose module or attribute no longer
exists is reported as missing (its metrics read 0) instead of failing
the run, so a refactor of the program shows up in the output rather
than breaking the benchmark.
"""

from __future__ import annotations

import importlib
from typing import Dict, List, Sequence, Tuple

from perfbench.spans import (
    Patcher,
    SpanRecorder,
    aggregate,
    covered_ns,
    parent_names,
)


def _results(args, kwargs, result) -> int:
    """Candidates of a batch call (``analyse_many``, ``run_group``...)."""
    return len(result)


def _estimates(args, kwargs, result) -> int:
    """Interpolated candidates of ``_score_candidates`` (its 2nd output)."""
    return len(result[1])


def _post_route(args) -> str:
    """Span name of ``_Handler.do_POST(self)``, by request path."""
    path = args[0].path.rstrip("/")
    return "service.handle_analyse" if path == "/analyse" else "service.handle_post"


#: (module, attribute path, span name, units) -- the analysis stack,
#: wrapped in the benchmark process and inside the traced server.
ANALYSIS_BOUNDARIES: Tuple[tuple, ...] = (
    ("repro.core.runtime", "SearchDriver.run", "runtime.run", None),
    ("repro.core.search", "Evaluator.analyse_many", "search.analyse_many", _results),
    ("repro.core.search", "Evaluator.analyse", "search.analyse", None),
    ("repro.core.dynlen", "_score_candidates", "dynlen.score", _estimates),
    ("repro.core.dynlen", "cost_function", "cost.estimate", None),
    ("repro.analysis.context", "cost_function", "cost.exact", None),
    ("repro.analysis.context", "AnalysisContext.analyse_batch", "context.analyse_batch", _results),
    ("repro.analysis.context", "AnalysisContext.analyse", "context.analyse", None),
    ("repro.core.config", "FlexRayConfig.validate_for", "config.validate", None),
    ("repro.analysis.scheduler", "SchedulePlan.replay", "scheduler.replay", None),
    ("repro.analysis.context", "NodeAvailability", "availability.build", None),
    ("repro.analysis.availability", "NodeAvailability._build_dominance_tables", "availability.dominance", None),
    ("repro.analysis.context", "_fps_busy_window", "fps.window", None),
    ("repro.analysis.context", "_dyn_busy_window", "dyn.window", None),
    ("repro.analysis.backend.arrays", "GroupPlan", "backend.lowering", None),
    ("repro.analysis.backend.arrays", "StructureTemplate", "backend.lowering", None),
    ("repro.analysis.backend.kernels", "run_group", "backend.kernel", _results),
    ("repro.analysis.backend.native", "run_group_native", "backend.kernel", _results),
)

#: Boundaries that only the server process crosses.
SERVER_BOUNDARIES: Tuple[tuple, ...] = (
    ("repro.service.server", "_Handler.do_POST", _post_route, None),
    ("repro.service.server", "parse_analyse_request", "serialization.parse", None),
    ("repro.service.server", "analyse_response", "serialization.encode", None),
    ("repro.service.server", "_Handler._reply", "serialization.reply", None),
    ("repro.core.campaign", "_process_job", "campaign.job", None),
    ("repro.core.campaign", "_write_checkpoint", "campaign.checkpoint_write", None),
)


def _resolve(module_name: str, path: str):
    """``(owner, attribute)`` of a dotted attribute path in a module."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{module_name}.{path}")
    return owner, attr


def install(
    recorder: SpanRecorder, boundaries: Sequence[tuple]
) -> Tuple[Patcher, List[str]]:
    """Wrap every boundary; returns the patcher and the missing ones."""
    patcher = Patcher()
    missing: List[str] = []
    for module_name, path, name, units in boundaries:
        try:
            owner, attr = _resolve(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        original = vars(owner)[attr]
        patcher.patch(owner, attr, recorder.traced(name, original, units))
    return patcher, missing


def wrapped_boundaries(boundaries: Sequence[tuple]) -> List[str]:
    """Boundaries that still hold a benchmark wrapper (should be none)."""
    left = []
    for module_name, path, _, _ in boundaries:
        try:
            owner, attr = _resolve(module_name, path)
        except (ImportError, AttributeError):
            continue
        if getattr(vars(owner)[attr], "__wrapped_by_perfbench__", False):
            left.append(f"{module_name}.{path}")
    return left


EE, CF, SA, SERVICE = "ee-sweep", "cf-estimate", "sa-walk", "service-mixed"

#: Every per-layer metric: name -> (end-to-end metrics it should move,
#: workloads it moves on).  Units and better directions are declared in
#: ``BENCHMARK.json``, whose entries cannot carry this map.
PER_LAYER: Dict[str, tuple] = {
    "runtime.driver_self_s": (["optimise_ref"], [SA]),
    "runtime.batches": (["optimise_ref"], [SA]),
    "runtime.batch_width": (["optimise_ref"], [EE, SA]),
    "search.self_s": (["optimise_ref", "latency_p50_ref"], [SA, SERVICE]),
    "search.exact_analyses": (["optimise_ref", "latency_p50_ref"], [SA, SERVICE]),
    "search.cache_hits": (["optimise_ref", "latency_p50_ref"], [SA, SERVICE]),
    "search.cache_hit_ratio": (["optimise_ref", "latency_p50_ref"], [SA, SERVICE]),
    "dynlen.score_s": (["optimise_ref"], [CF]),
    "dynlen.score_calls": (["optimise_ref"], [CF]),
    "dynlen.estimates": (["optimise_ref"], [CF]),
    "cost.exact_s": (["optimise_ref"], [EE, SA]),
    "cost.estimate_s": (["optimise_ref"], [CF]),
    "cost.estimate_calls": (["optimise_ref"], [CF]),
    "context.analyses": (["optimise_ref", "analyses_per_ref"], [EE, SA]),
    "context.fixpoint_self_s": (["optimise_ref", "analyses_per_ref"], [EE, SA]),
    "config.validate_s": (["optimise_ref"], [SA]),
    "config.validate_calls": (["optimise_ref"], [SA]),
    "config.validations_per_analysis": (["optimise_ref"], [SA]),
    "scheduler.replay_s": (["optimise_ref"], [EE, SA]),
    "scheduler.replays": (["optimise_ref"], [EE, SA]),
    "scheduler.replays_per_analysis": (["optimise_ref"], [EE, SA]),
    "availability.build_s": (["optimise_ref"], [EE]),
    "availability.builds": (["optimise_ref"], [EE]),
    "availability.dominance_s": (["optimise_ref"], [EE]),
    "fps.window_s": (["analyses_per_ref"], [EE, SA]),
    "fps.windows": (["analyses_per_ref"], [EE, SA]),
    "dyn.window_s": (["analyses_per_ref"], [EE, SA]),
    "dyn.windows": (["analyses_per_ref"], [EE, SA]),
    "backend.lowering_s": (["optimise_ref"], [EE, SA]),
    "backend.lowerings": (["optimise_ref"], [EE, SA]),
    "backend.kernel_s": (["optimise_ref"], [EE, SA]),
    "backend.groups": (["optimise_ref"], [EE, SA]),
    "backend.lanes_per_group": (["optimise_ref"], [EE, SA]),
    "service.handler_ms": (["latency_p50_ref"], [SERVICE]),
    "service.wait_ms": (["latency_p50_ref"], [SERVICE]),
    "service.rejected": (["analyses_per_ref"], [SERVICE]),
    "service.analyse_tail_ms": (["latency_p50_ref"], [SERVICE]),
    "service.analyse_tail_p": ([], [SERVICE]),
    "service.analyse_samples": (["analyses_per_ref"], [SERVICE]),
    "pool.hits": (["latency_p50_ref"], [SERVICE]),
    "pool.misses": (["latency_p50_ref"], [SERVICE]),
    "pool.hit_ratio": (["latency_p50_ref"], [SERVICE]),
    "serialization.parse_ms": (["latency_p50_ref"], [SERVICE]),
    "serialization.encode_ms": (["latency_p50_ref"], [SERVICE]),
    "campaign.jobs": (["optimise_ref"], [SERVICE]),
    "campaign.job_s": (["optimise_ref"], [SERVICE]),
    "campaign.checkpoint_write_s": (["optimise_ref"], [SERVICE]),
    "campaign.checkpoint_bytes": (["optimise_ref"], [SERVICE]),
    "trace.overhead_ratio": ([], [EE, CF, SA, SERVICE]),
    "trace.residual_s": ([], [EE, CF, SA, SERVICE]),
    "trace.spans": ([], [EE, CF, SA, SERVICE]),
    "trace.missing_boundaries": ([], [EE, CF, SA, SERVICE]),
    "error_rate": ([], [EE, CF, SA, SERVICE]),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(spans: Sequence[tuple]) -> Dict[str, float]:
    """The per-layer metrics the spans alone determine."""
    table = aggregate(spans)
    parents = parent_names(spans)

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "units": 0})

    def self_s(*names: str) -> float:
        return sum(row(n)["self_ns"] for n in names) / 1e9

    # A context.analyse that delegates to analyse_batch (non-Python
    # backends) must not count its candidate twice.
    nested_batch = sum(
        span[6]
        for span in spans
        if span[3] == "context.analyse_batch"
        and parents[span[0]] == "context.analyse"
    )
    analyses = (
        row("context.analyse_batch")["units"] - nested_batch
        + row("context.analyse")["calls"]
    )
    # native delegating a group to the numpy kernels is still one group.
    top_groups = [
        span
        for span in spans
        if span[3] == "backend.kernel" and parents[span[0]] != "backend.kernel"
    ]
    batches = row("search.analyse_many")
    estimate = row("cost.estimate")
    validate = row("config.validate")
    replay = row("scheduler.replay")
    out = {
        "runtime.driver_self_s": self_s("runtime.run"),
        "runtime.batches": batches["calls"],
        "runtime.batch_width": _ratio(batches["units"], batches["calls"]),
        "search.self_s": self_s("search.analyse_many", "search.analyse"),
        "dynlen.score_s": self_s("dynlen.score"),
        "dynlen.score_calls": row("dynlen.score")["calls"],
        "dynlen.estimates": row("dynlen.score")["units"],
        "cost.exact_s": self_s("cost.exact"),
        "cost.estimate_s": self_s("cost.estimate"),
        "cost.estimate_calls": estimate["calls"],
        "context.analyses": analyses,
        "context.fixpoint_self_s": self_s("context.analyse_batch", "context.analyse"),
        "config.validate_s": self_s("config.validate"),
        "config.validate_calls": validate["calls"],
        "config.validations_per_analysis": _ratio(validate["calls"], analyses),
        "scheduler.replay_s": self_s("scheduler.replay"),
        "scheduler.replays": replay["calls"],
        "scheduler.replays_per_analysis": _ratio(replay["calls"], analyses),
        "availability.build_s": self_s("availability.build"),
        "availability.builds": row("availability.build")["calls"],
        "availability.dominance_s": self_s("availability.dominance"),
        "fps.window_s": self_s("fps.window"),
        "fps.windows": row("fps.window")["calls"],
        "dyn.window_s": self_s("dyn.window"),
        "dyn.windows": row("dyn.window")["calls"],
        "backend.lowering_s": self_s("backend.lowering"),
        "backend.lowerings": row("backend.lowering")["calls"],
        "backend.kernel_s": self_s("backend.kernel"),
        "backend.groups": len(top_groups),
        "backend.lanes_per_group": _ratio(
            sum(span[6] for span in top_groups), len(top_groups)
        ),
        "trace.spans": len(spans),
    }
    handled = row("service.handle_analyse")
    out["service.handler_ms"] = _ratio(handled["total_ns"], handled["calls"]) / 1e6
    out["serialization.parse_ms"] = _ratio(
        row("serialization.parse")["total_ns"], row("serialization.parse")["calls"]
    ) / 1e6
    # Encoding an analyse response: the result document, then the JSON
    # reply written by the same request's handler.
    encode_ns = sum(
        span[5] - span[4]
        for span in spans
        if span[3] == "serialization.encode"
        or (span[3] == "serialization.reply" and parents[span[0]] == "service.handle_analyse")
    )
    out["serialization.encode_ms"] = _ratio(encode_ns, handled["calls"]) / 1e6
    jobs = row("campaign.job")
    out["campaign.jobs"] = jobs["calls"]
    out["campaign.job_s"] = _ratio(jobs["total_ns"], jobs["calls"]) / 1e9
    out["campaign.checkpoint_write_s"] = self_s("campaign.checkpoint_write")
    return out


def uncovered_s(spans: Sequence[tuple], start_ns: int, end_ns: int) -> float:
    """Wall clock in ``[start_ns, end_ns]`` that no top-level span covers.

    Top-level spans of concurrent threads overlap; their union counts
    once, so the residual is never negative.
    """
    top = [(span[4], span[5]) for span in spans if not span[1]]
    return (end_ns - start_ns - covered_ns(start_ns, end_ns, top)) / 1e9


def per_layer_output(
    values: Dict[str, float], declared: Sequence[dict]
) -> Dict[str, dict]:
    """Every *declared* per-layer metric in the result-line shape (0 when
    unset), with the unit ``BENCHMARK.json`` gives it."""
    return {
        metric["name"]: {
            "value": float(values.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in declared
    }

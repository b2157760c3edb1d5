"""Bus access optimisation: configurations, cost, and the search runtime.

Public entry points
-------------------
:func:`optimise`
    The unified entry point: dispatch any registered strategy by name
    (``"bbc"``, ``"obc-cf"``, ``"obc-ee"``, ``"sa"``, ``"ga"``, plus
    anything added via :func:`register_strategy`) through the search
    runtime.  ``optimise(system, "sa", SAOptions(seed=7))``.
:func:`optimise_bbc`, :func:`optimise_obc`, :func:`optimise_sa`,
:func:`optimise_ga`
    The paper's bus-access optimisers, as direct calls.  Every one is a
    proposal strategy executed by the
    :class:`~repro.core.runtime.SearchDriver` (evaluation, budgets,
    trace, deterministic selection) and returns an
    :class:`OptimisationResult` with the best
    :class:`~repro.analysis.AnalysisResult`, the exact analysis count,
    cache-hit accounting and the search trace.  At a fixed seed every
    strategy is byte-identical serial vs. parallel.
:func:`campaign_matrix` / :func:`run_campaign`
    The campaign layer: declarative (system x strategy x options) job
    matrices with JSON-persisted results and resumable checkpoints.
:func:`fabric_submit` / :func:`fabric_work` / :func:`fabric_collect`
    The distributed fabric (:mod:`repro.core.fabric`): the same job
    matrices drained by any number of crash-tolerant worker processes
    leasing jobs from a shared directory.
:class:`StrategyOptions`
    Common base of the per-strategy option records (:class:`SAOptions`,
    :class:`GAOptions`); carries the evaluator knobs (``bus``) and the
    driver budgets (``max_seconds`` / ``max_evaluations``).
:class:`BusOptimisationOptions`
    The shared evaluator/analysis knob record; every field documents
    its default and its determinism guarantee (notably
    ``parallel_workers``, the opt-in process pool).
:class:`Evaluator`
    The evaluation machinery behind the driver: a warm
    :class:`~repro.analysis.AnalysisContext`, an LRU result cache and
    the parallel pool behind ``analyse_many``.  A context manager --
    the pool is released on every exit path.
:class:`FlexRayConfig`
    The immutable design variable; derive neighbours with the
    ``with_*`` helpers.

Exports are resolved lazily (PEP 562): the timing-analysis layer imports
``repro.core.config`` while the optimisers in this package import the
analysis layer, so eager re-exports here would create an import cycle.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "BusOptimisationOptions": "repro.core.search",
    "CampaignJob": "repro.core.campaign",
    "CampaignJobFailure": "repro.core.campaign",
    "CampaignOptions": "repro.core.campaign",
    "CampaignReport": "repro.core.campaign",
    "CandidateBatch": "repro.core.runtime",
    "CandidateSweep": "repro.core.runtime",
    "CostBreakdown": "repro.core.cost",
    "Evaluator": "repro.core.search",
    "FabricSpec": "repro.core.fabric",
    "FabricStatus": "repro.core.fabric",
    "FlexRayConfig": "repro.core.config",
    "WorkerReport": "repro.core.fabric",
    "GAOptions": "repro.core.ga",
    "NewtonInterpolator": "repro.core.curvefit",
    "OptimisationResult": "repro.core.result",
    "MappingOptions": "repro.core.mapping",
    "MappingResult": "repro.core.mapping",
    "SAOptions": "repro.core.sa",
    "SearchDriver": "repro.core.runtime",
    "SearchPoint": "repro.core.result",
    "SearchStrategy": "repro.core.runtime",
    "StrategyOptions": "repro.core.strategies",
    "StrategySpec": "repro.core.strategies",
    "assign_frame_ids": "repro.core.frameid",
    "available_strategies": "repro.core.strategies",
    "basic_configuration": "repro.core.bbc",
    "campaign_matrix": "repro.core.campaign",
    "cost_function": "repro.core.cost",
    "curvefit_dyn_length": "repro.core.dynlen",
    "dyn_segment_bounds": "repro.core.search",
    "ensure_writable_dir": "repro.core.campaign",
    "ensure_writable_file": "repro.core.campaign",
    "exhaustive_dyn_length": "repro.core.dynlen",
    "fabric_collect": "repro.core.fabric",
    "fabric_events": "repro.core.fabric",
    "fabric_status": "repro.core.fabric",
    "fabric_submit": "repro.core.fabric",
    "fabric_work": "repro.core.fabric",
    "get_strategy": "repro.core.strategies",
    "load_fabric": "repro.core.fabric",
    "message_criticalities": "repro.core.frameid",
    "min_static_slot": "repro.core.search",
    "optimise": "repro.core.strategies",
    "optimise_bbc": "repro.core.bbc",
    "optimise_ga": "repro.core.ga",
    "optimise_mapping": "repro.core.mapping",
    "optimise_obc": "repro.core.obc",
    "optimise_sa": "repro.core.sa",
    "quota_slot_assignment": "repro.core.search",
    "register_strategy": "repro.core.strategies",
    "remap_task": "repro.core.mapping",
    "run_campaign": "repro.core.campaign",
    "spread_points": "repro.core.curvefit",
    "sweep_lengths": "repro.core.search",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve re-exported names on first access."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static typing aid only
    from repro.core.bbc import basic_configuration, optimise_bbc
    from repro.core.campaign import (
        CampaignJob,
        CampaignJobFailure,
        CampaignOptions,
        CampaignReport,
        campaign_matrix,
        ensure_writable_dir,
        ensure_writable_file,
        run_campaign,
    )
    from repro.core.fabric import (
        FabricSpec,
        FabricStatus,
        WorkerReport,
        fabric_collect,
        fabric_events,
        fabric_status,
        fabric_submit,
        fabric_work,
        load_fabric,
    )
    from repro.core.config import FlexRayConfig
    from repro.core.cost import CostBreakdown, cost_function
    from repro.core.curvefit import NewtonInterpolator, spread_points
    from repro.core.dynlen import curvefit_dyn_length, exhaustive_dyn_length
    from repro.core.frameid import assign_frame_ids, message_criticalities
    from repro.core.ga import GAOptions, optimise_ga
    from repro.core.mapping import MappingOptions, MappingResult, optimise_mapping
    from repro.core.obc import optimise_obc
    from repro.core.result import OptimisationResult, SearchPoint
    from repro.core.runtime import (
        CandidateBatch,
        CandidateSweep,
        SearchDriver,
        SearchStrategy,
    )
    from repro.core.sa import SAOptions, optimise_sa
    from repro.core.search import (
        BusOptimisationOptions,
        Evaluator,
        dyn_segment_bounds,
        min_static_slot,
        quota_slot_assignment,
        sweep_lengths,
    )
    from repro.core.strategies import (
        StrategyOptions,
        StrategySpec,
        available_strategies,
        get_strategy,
        optimise,
        register_strategy,
    )

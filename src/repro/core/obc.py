"""Optimised Bus Configuration heuristic -- OBC (Fig. 6 of the paper).

Explores static-segment alternatives (slot count from the per-sender
minimum upward, slot size from the largest-frame minimum upward in
2-byte steps, quota-based round-robin slot assignment) and, for each,
searches the DYN segment length with either exhaustive exploration
(OBC/EE) or the curve-fitting heuristic (OBC/CF).  The search ends as
soon as a schedulable configuration is found (line 7).

The strategy is a proposal generator (:mod:`repro.core.runtime`): each
variant's DYN search is a ``yield from`` over the
:mod:`repro.core.dynlen` subgenerators, and the first-schedulable early
stop is the generator returning its selection -- which takes precedence
over the driver's default lowest-cost pick, preserving the exact Fig. 6
semantics (the run reports the configuration that *triggered* the stop).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.holistic import AnalysisResult
from repro.core.config import FlexRayConfig
from repro.core.dynlen import curvefit_proposals, exhaustive_proposals
from repro.core.frameid import assign_frame_ids
from repro.core.result import OptimisationResult
from repro.core.runtime import (
    CandidateBatch,
    Proposals,
    SearchDriver,
    SearchStrategy,
)
from repro.core.search import (
    BusOptimisationOptions,
    better,
    dyn_segment_bounds,
    min_static_slot,
    quota_slot_assignment,
)
from repro.core.strategies import StrategyOptions, StrategySpec
from repro.errors import ConfigurationError, OptimisationError
from repro.flexray import params
from repro.model.system import System

#: Supported DYN-length search strategies.
METHODS = ("curvefit", "exhaustive")


def _static_variants(
    system: System, options: BusOptimisationOptions
) -> List[Tuple[Optional[FlexRayConfig], int, int]]:
    """The OBC outer loop's static-segment alternatives, in serial order.

    Each entry is ``(template, lo, hi)``; ``lo == hi == 0`` marks the
    no-DYN-message case whose single candidate is analysed directly.
    """
    frame_ids = assign_frame_ids(
        system, options.bits_per_mt, options.frame_overhead_bytes
    )
    st_nodes = system.st_sender_nodes()
    n_min = len(st_nodes)
    n_max = min(n_min + options.max_extra_static_slots, params.MAX_STATIC_SLOTS)
    slot_min = min_static_slot(system, options)
    slot_max = min(
        slot_min + params.STATIC_SLOT_STEP_MT * options.max_slot_size_steps,
        params.MAX_STATIC_SLOT_MT,
    )
    variants: List[Tuple[Optional[FlexRayConfig], int, int]] = []
    for n_slots in range(max(n_min, 0), n_max + 1):
        slots = quota_slot_assignment(system, n_slots) if n_slots else ()
        slot_sizes = (
            range(slot_min, slot_max + 1, params.STATIC_SLOT_STEP_MT)
            if n_slots
            else (0,)
        )
        for slot_size in slot_sizes:
            st_bus = n_slots * slot_size
            lo, hi = dyn_segment_bounds(system, st_bus, options)
            template = _template(
                slots, slot_size if n_slots else 0, max(lo, 1), frame_ids,
                options,
            )
            if template is None:
                continue
            if hi < lo and not (lo == 0 and hi == 0):
                continue  # the static segment leaves no room for DYN frames
            variants.append((template, lo, hi))
        if not st_nodes:
            break  # no static structure to vary
    return variants


def _no_dyn_config(template: FlexRayConfig) -> FlexRayConfig:
    """The single candidate of a variant without DYN messages: a minimal
    dynamic segment is kept only when the cycle would otherwise be empty."""
    try:
        return template.with_dyn_length(0)
    except ConfigurationError:
        return template


class OBCStrategy(SearchStrategy):
    """The Fig. 6 outer loop as a proposal strategy (CF or EE inner)."""

    def __init__(self, options: StrategyOptions = None, method: str = "curvefit"):
        if method not in METHODS:
            raise OptimisationError(
                f"unknown DYN search method {method!r}; choose from {METHODS}"
            )
        super().__init__(options)
        self.method = method
        self.algorithm = "OBC/CF" if method == "curvefit" else "OBC/EE"

    def proposals(self, system: System) -> Proposals:
        bus = self.options.bus_options()
        best: Optional[AnalysisResult] = None
        for template, lo, hi in _static_variants(system, bus):
            if lo == 0 and hi == 0:
                results = yield CandidateBatch((_no_dyn_config(template),))
                result = results[0]
            elif self.method == "curvefit":
                result = yield from curvefit_proposals(
                    system, bus, template, lo, hi
                )
            else:
                result = yield from exhaustive_proposals(bus, template, lo, hi)
            if result is not None and not result.feasible:
                result = None
            if better(result, best):
                best = result
            if bus.stop_when_schedulable and best is not None and best.schedulable:
                return best
        return best


def _template(slots, slot_size, n_minislots, frame_ids, options):
    try:
        return FlexRayConfig(
            static_slots=slots,
            gd_static_slot=slot_size,
            n_minislots=n_minislots,
            frame_ids=frame_ids,
            gd_minislot=options.gd_minislot,
            bits_per_mt=options.bits_per_mt,
            frame_overhead_bytes=options.frame_overhead_bytes,
        )
    except ConfigurationError:
        return None  # e.g. the static segment alone exceeds 16 ms


def _run_obc_cf(system: System, options: StrategyOptions) -> OptimisationResult:
    return SearchDriver(system, OBCStrategy(options, "curvefit")).run()


def _run_obc_ee(system: System, options: StrategyOptions) -> OptimisationResult:
    return SearchDriver(system, OBCStrategy(options, "exhaustive")).run()


STRATEGY_SPEC_CF = StrategySpec(
    name="obc-cf",
    summary="OBC with the curve-fitting DYN-length heuristic (Fig. 8)",
    options_type=StrategyOptions,
    runner=_run_obc_cf,
)

STRATEGY_SPEC_EE = StrategySpec(
    name="obc-ee",
    summary="OBC with exhaustive DYN-length exploration",
    options_type=StrategyOptions,
    runner=_run_obc_ee,
)


def optimise_obc(
    system: System,
    options: BusOptimisationOptions = None,
    method: str = "curvefit",
) -> OptimisationResult:
    """Run the OBC heuristic; ``method`` selects OBC/CF or OBC/EE."""
    return SearchDriver(
        system, OBCStrategy(StrategyOptions(bus=options), method)
    ).run()

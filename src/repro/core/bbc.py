"""Basic Bus Configuration -- BBC (Fig. 5 of the paper).

The BBC derives a bus cycle from the application's minimal bandwidth
needs: unique criticality-ordered FrameIDs, one static slot per
ST-sending node, the slot just large enough for the biggest ST frame,
and a sweep over the legal DYN segment lengths keeping the best cost.

The whole sweep is one :class:`~repro.core.runtime.CandidateSweep`:
BBC proposes every DYN length up front against one template, the
:class:`~repro.core.runtime.SearchDriver` evaluates the sweep (on the
parallel pool when configured) and its default deterministic selection
-- lowest cost, first occurrence, infeasible discarded -- is exactly
the Fig. 5 outcome.
"""

from __future__ import annotations

from repro.core.config import FlexRayConfig
from repro.core.frameid import assign_frame_ids
from repro.core.result import OptimisationResult
from repro.core.runtime import (
    CandidateBatch,
    CandidateSweep,
    Proposals,
    SearchDriver,
    SearchStrategy,
)
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions, StrategySpec
from repro.model.system import System


def basic_configuration(
    system: System, n_minislots: int, options: BusOptimisationOptions = None
) -> FlexRayConfig:
    """The BBC static structure with a given DYN segment length.

    When the system has no ST-sending nodes the static segment is empty
    and ``n_minislots`` is forced to at least 1 so the cycle is not
    empty.
    """
    options = options or BusOptimisationOptions()
    frame_ids = assign_frame_ids(
        system, options.bits_per_mt, options.frame_overhead_bytes
    )
    st_nodes = system.st_sender_nodes()
    if not st_nodes:
        n_minislots = max(1, n_minislots)
    return FlexRayConfig(
        static_slots=tuple(st_nodes),
        gd_static_slot=min_static_slot(system, options) if st_nodes else 0,
        n_minislots=n_minislots,
        frame_ids=frame_ids,
        gd_minislot=options.gd_minislot,
        bits_per_mt=options.bits_per_mt,
        frame_overhead_bytes=options.frame_overhead_bytes,
    )


class BBCStrategy(SearchStrategy):
    """The Fig. 5 sweep as a single-sweep proposal strategy."""

    algorithm = "BBC"

    def proposals(self, system: System) -> Proposals:
        bus = self.options.bus_options()
        st_nodes = system.st_sender_nodes()
        slot = min_static_slot(system, bus) if st_nodes else 0
        st_bus = len(st_nodes) * slot
        lo, hi = dyn_segment_bounds(system, st_bus, bus)
        if lo == 0 and hi == 0:
            # No DYN messages: the cycle is purely static.
            yield CandidateBatch((basic_configuration(system, 0, bus),))
        else:
            # The whole sweep shares one static segment and structure,
            # so the warm context derives them once; one sweep also lets
            # the parallel pool fan the lengths out when configured.
            lengths = sweep_lengths(lo, hi, bus.max_dyn_points)
            if lengths:
                yield CandidateSweep(
                    basic_configuration(system, lengths[0], bus),
                    tuple(lengths),
                )
        return None  # driver default selection == Fig. 5's keep-the-best


def _run_bbc(system: System, options: StrategyOptions) -> OptimisationResult:
    return SearchDriver(system, BBCStrategy(options)).run()


STRATEGY_SPEC = StrategySpec(
    name="bbc",
    summary="Basic Bus Configuration: minimal static segment, DYN sweep",
    options_type=StrategyOptions,
    runner=_run_bbc,
)


def optimise_bbc(
    system: System, options: BusOptimisationOptions = None
) -> OptimisationResult:
    """Run the BBC algorithm (Fig. 5) and return the best configuration."""
    return _run_bbc(system, StrategyOptions(bus=options))

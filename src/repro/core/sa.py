"""Simulated annealing baseline (Section 7).

The paper implements an SA explorer "with moves concerning not only the
number and size of static slots and size of the DYN segment, but also
the assignment of slots to nodes and FrameIDs to messages" and runs it
for hours to obtain near-optimal reference costs.  This module provides
that baseline with an iteration/time budget so laptop runs finish; the
budget is a parameter for paper-scale experiments.

One annealing chain is inherently sequential -- every move depends on
the previous acceptance decision -- so :class:`SAStrategy` proposes
single-candidate batches through the search runtime and the driver's
default lowest-cost selection reproduces the legacy outcome exactly.
Parallelism comes from *restarts*: independent chains (each its own
:class:`~repro.core.runtime.SearchDriver` run, hence its own evaluator
and trace) raced across a process pool and merged in restart order, so
parallel == serial byte-identically.
"""

from __future__ import annotations

import logging
import math
import random
import time
from dataclasses import dataclass
from typing import Optional

from repro.analysis.holistic import AnalysisResult
from repro.core.bbc import basic_configuration
from repro.core.config import FlexRayConfig
from repro.core.result import OptimisationResult
from repro.core.runtime import (
    CandidateBatch,
    DeadlineExceeded,
    Proposals,
    SearchDriver,
    SearchStrategy,
    deadline,
    seconds_left,
)
from repro.core.search import (
    BusOptimisationOptions,
    better,
    dyn_segment_bounds,
    min_static_slot,
)
from repro.core.strategies import StrategyOptions, StrategySpec
from repro.errors import ConfigurationError
from repro.flexray import params
from repro.model.system import System

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SAOptions(StrategyOptions):
    """Annealing schedule and budget.

    Extends :class:`~repro.core.strategies.StrategyOptions`, so it also
    carries the evaluator knobs (``bus``) and the driver budgets; the
    driver checks ``max_seconds`` before each move's analysis.
    """

    iterations: int = 400
    seed: int = 2007
    initial_temperature: Optional[float] = None  # auto: |initial cost| or 100
    cooling: float = 0.97
    moves_per_temperature: int = 8
    #: Number of independent annealing chains (restart *i* uses seed
    #: ``seed + i``); the best chain outcome wins.  Chains are
    #: embarrassingly parallel and run on the evaluation pool when
    #: ``BusOptimisationOptions.parallel_workers`` asks for one, with
    #: results merged in restart order so parallel == serial.  The
    #: driver budgets (``max_seconds`` / ``max_evaluations``) apply
    #: *per chain* -- chains are independent driver runs, deliberately
    #: free of cross-chain coupling so the parallel chain map stays
    #: byte-identical to the serial one; the merged result reports
    #: ``stop_reason="budget"`` when any chain was cut short.
    restarts: int = 1


class SAStrategy(SearchStrategy):
    """One annealing chain as a proposal strategy.

    ``chain_seed`` overrides the options' seed (used by the restart
    runner to derive per-chain seeds); the driver's default selection
    (lowest cost among feasible candidates, first occurrence) is the
    legacy chain outcome.
    """

    algorithm = "SA"

    def __init__(self, options: SAOptions = None, chain_seed: Optional[int] = None):
        super().__init__(options if options is not None else SAOptions())
        self.chain_seed = (
            chain_seed if chain_seed is not None else self.options.seed
        )

    def proposals(self, system: System) -> Proposals:
        sa_options = self.options
        bus = sa_options.bus_options()
        rng = random.Random(self.chain_seed)

        current_cfg = _initial_config(system, bus)
        results = yield CandidateBatch((current_cfg,))
        current = results[0]

        temperature = sa_options.initial_temperature
        if temperature is None:
            scale = abs(current.cost_value) if current.feasible else 0.0
            temperature = max(scale, 100.0)

        moves_left = sa_options.moves_per_temperature
        for _ in range(sa_options.iterations):
            neighbour_cfg = _neighbour(system, current_cfg, bus, rng)
            if neighbour_cfg is None:
                continue
            results = yield CandidateBatch((neighbour_cfg,))
            neighbour = results[0]
            if _accept(current, neighbour, temperature, rng):
                current_cfg, current = neighbour_cfg, neighbour
            moves_left -= 1
            if moves_left <= 0:
                temperature = max(temperature * sa_options.cooling, 1e-6)
                moves_left = sa_options.moves_per_temperature
        return None  # driver default: lowest-cost feasible candidate


def run_sa(system: System, sa_options: SAOptions) -> OptimisationResult:
    """Registry runner: one chain, or merged restart chains."""
    if sa_options.restarts > 1:
        return _optimise_sa_restarts(system, sa_options)
    return SearchDriver(system, SAStrategy(sa_options)).run()


STRATEGY_SPEC = StrategySpec(
    name="sa",
    summary="Simulated annealing over the full Section 6 design space",
    options_type=SAOptions,
    runner=run_sa,
)


def optimise_sa(
    system: System,
    options: BusOptimisationOptions = None,
    sa_options: SAOptions = None,
) -> OptimisationResult:
    """Anneal over the full design space of Section 6."""
    sa_options = sa_options if sa_options is not None else SAOptions()
    return run_sa(system, sa_options.with_bus(options))


def _optimise_sa_restarts(
    system: System, sa_options: SAOptions
) -> OptimisationResult:
    """Run independent chains and merge them deterministically; pool
    chains re-enter the caller's :func:`~repro.core.runtime.deadline`."""
    start = time.perf_counter()
    seeds = [sa_options.seed + i for i in range(sa_options.restarts)]
    chains: Optional[list] = None
    workers = sa_options.bus_options().parallel_workers or 0
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            jobs = [(system, sa_options, s, seconds_left()) for s in seeds]
            with ProcessPoolExecutor(max_workers=workers) as pool:
                chains = list(pool.map(_sa_chain_job, jobs))
        except DeadlineExceeded:
            raise
        except Exception as exc:
            logger.warning(
                "SA restart pool failed (%s: %s); re-running all %d "
                "chain(s) serially -- results are identical, only slower. "
                "A worker process may have died (OOM-killed?) or the "
                "payload may not be picklable; rerun without --workers to "
                "avoid the pool entirely.",
                type(exc).__name__,
                exc,
                len(seeds),
            )
    if chains is None:
        chains = [_sa_chain_job((system, sa_options, s, None)) for s in seeds]

    best: Optional[AnalysisResult] = None
    trace = []
    evaluations = 0
    cache_hits = 0
    stop_reason = None
    for chain in chains:
        evaluations += chain.evaluations
        cache_hits += chain.cache_hits
        trace.extend(chain.trace)
        if chain.stop_reason is not None:
            stop_reason = chain.stop_reason
        if chain.best is not None and better(chain.best, best):
            best = chain.best
    return OptimisationResult(
        algorithm="SA",
        best=best,
        evaluations=evaluations,
        elapsed_seconds=time.perf_counter() - start,
        trace=tuple(trace),
        cache_hits=cache_hits,
        stop_reason=stop_reason,
    )


def _sa_chain_job(args) -> OptimisationResult:
    """One annealing chain (its own driver, evaluator and trace) under
    a deadline *left* seconds away; module-level so restart chains can
    cross process bounds."""
    system, sa_options, seed, left = args
    with deadline(left):
        return SearchDriver(system, SAStrategy(sa_options, chain_seed=seed)).run()


def _initial_config(
    system: System, options: BusOptimisationOptions
) -> FlexRayConfig:
    """Start from the BBC structure with a mid-range DYN segment."""
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    if hi >= lo and hi > 0:
        return basic_configuration(system, (lo + hi) // 2, options)
    return basic_configuration(system, 0, options)


def _accept(
    current: AnalysisResult,
    neighbour: AnalysisResult,
    temperature: float,
    rng: random.Random,
) -> bool:
    cur = current.cost_value
    new = neighbour.cost_value
    if math.isinf(new):
        return False
    if math.isinf(cur) or new <= cur:
        return True
    return rng.random() < math.exp(-(new - cur) / temperature)


def _neighbour(
    system: System,
    cfg: FlexRayConfig,
    options: BusOptimisationOptions,
    rng: random.Random,
) -> Optional[FlexRayConfig]:
    """One random legal move; None when the chosen move is inapplicable."""
    moves = [
        _move_dyn_length,
        _move_dyn_scale,
        _move_slot_size,
        _move_add_slot,
        _move_remove_slot,
        _move_reassign_slot,
        _move_swap_frame_ids,
        _move_relocate_frame_id,
    ]
    move = rng.choice(moves)
    try:
        return move(system, cfg, options, rng)
    except ConfigurationError:
        return None


def _move_dyn_length(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    lo, hi = dyn_segment_bounds(system, cfg.st_bus, options)
    if hi < lo:
        return None
    span = max(1, (hi - lo) // 10)
    delta = rng.randint(1, span) * rng.choice((-1, 1))
    return cfg.with_dyn_length(min(hi, max(lo, cfg.n_minislots + delta)))


def _move_dyn_scale(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    """Halve or double the DYN segment -- lets the annealer traverse the
    orders-of-magnitude range of legal lengths quickly."""
    lo, hi = dyn_segment_bounds(system, cfg.st_bus, options)
    if hi < lo:
        return None
    factor = rng.choice((0.5, 2.0))
    n = int(cfg.n_minislots * factor)
    return cfg.with_dyn_length(min(hi, max(lo, n)))


def _move_slot_size(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    if not cfg.static_slots:
        return None
    step = params.STATIC_SLOT_STEP_MT * rng.randint(1, 3) * rng.choice((-1, 1))
    size = cfg.gd_static_slot + step
    size = max(min_static_slot(system, options), size)
    size = min(size, params.MAX_STATIC_SLOT_MT)
    return cfg.with_static(cfg.static_slots, size)


def _move_add_slot(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    st_nodes = system.st_sender_nodes()
    if not st_nodes or len(cfg.static_slots) >= params.MAX_STATIC_SLOTS:
        return None
    node = rng.choice(st_nodes)
    position = rng.randint(0, len(cfg.static_slots))
    slots = (
        cfg.static_slots[:position] + (node,) + cfg.static_slots[position:]
    )
    return cfg.with_static(slots, cfg.gd_static_slot)


def _move_remove_slot(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    st_nodes = system.st_sender_nodes()
    if len(cfg.static_slots) <= len(st_nodes):
        return None
    removable = [
        i
        for i, owner in enumerate(cfg.static_slots)
        if cfg.static_slots.count(owner) > 1
    ]
    if not removable:
        return None
    i = rng.choice(removable)
    slots = cfg.static_slots[:i] + cfg.static_slots[i + 1 :]
    return cfg.with_static(slots, cfg.gd_static_slot)


def _move_reassign_slot(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    st_nodes = system.st_sender_nodes()
    if not cfg.static_slots or len(st_nodes) < 2:
        return None
    candidates = [
        i
        for i, owner in enumerate(cfg.static_slots)
        if cfg.static_slots.count(owner) > 1
    ]
    if not candidates:
        return None
    i = rng.choice(candidates)
    new_owner = rng.choice([n for n in st_nodes if n != cfg.static_slots[i]])
    slots = cfg.static_slots[:i] + (new_owner,) + cfg.static_slots[i + 1 :]
    return cfg.with_static(slots, cfg.gd_static_slot)


def _move_swap_frame_ids(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    names = sorted(cfg.frame_ids)
    if len(names) < 2:
        return None
    a, b = rng.sample(names, 2)
    frame_ids = dict(cfg.frame_ids)
    frame_ids[a], frame_ids[b] = frame_ids[b], frame_ids[a]
    return cfg.with_frame_ids(frame_ids)


def _move_relocate_frame_id(system, cfg, options, rng) -> Optional[FlexRayConfig]:
    names = sorted(cfg.frame_ids)
    if not names or cfg.n_minislots < 1:
        return None
    name = rng.choice(names)
    used = set(cfg.frame_ids.values())
    free = [f for f in range(1, min(cfg.n_minislots, len(names) * 2) + 1)
            if f not in used]
    if not free:
        return None
    frame_ids = dict(cfg.frame_ids)
    frame_ids[name] = rng.choice(free)
    return cfg.with_frame_ids(frame_ids)

"""Genetic-algorithm baseline (related work [5] of the paper).

Ding et al., "A GA-Based Scheduling Method for FlexRay Systems"
(EMSOFT 2005) -- the approach the paper positions itself against (it
only handles the static segment).  This module provides a GA over the
*full* design space of Section 6 so it can serve as a second
population-based reference point next to SA: tournament selection,
structure crossover, and mutation through the SA neighbourhood moves.

Each generation is one :class:`~repro.core.runtime.CandidateBatch`:
the RNG is never consumed during evaluation, so the search driver can
fan a generation out over the parallel pool and the population
trajectory is byte-identical to a serial run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import FlexRayConfig
from repro.core.result import OptimisationResult
from repro.core.runtime import (
    CandidateBatch,
    Proposals,
    SearchDriver,
    SearchStrategy,
)
from repro.core.sa import _initial_config, _neighbour
from repro.core.search import BusOptimisationOptions, dyn_segment_bounds
from repro.core.strategies import StrategyOptions, StrategySpec
from repro.errors import ConfigurationError
from repro.model.system import System


@dataclass(frozen=True)
class GAOptions(StrategyOptions):
    """Population and budget of the genetic algorithm.

    Extends :class:`~repro.core.strategies.StrategyOptions` (evaluator
    knobs + driver budgets); the driver checks ``max_seconds`` before
    each generation's analysis.
    """

    population: int = 12
    generations: int = 12
    tournament: int = 3
    crossover_rate: float = 0.7
    mutation_rate: float = 0.6
    elite: int = 2
    seed: int = 2005


class GAStrategy(SearchStrategy):
    """Generational evolution as a proposal strategy."""

    algorithm = "GA"

    def __init__(self, options: GAOptions = None):
        super().__init__(options if options is not None else GAOptions())

    def proposals(self, system: System) -> Proposals:
        ga_options = self.options
        bus = ga_options.bus_options()
        rng = random.Random(ga_options.seed)

        population = _initial_population(
            system, bus, rng, ga_options.population
        )
        # Whole generations are evaluated as one batch: the RNG is never
        # consumed during evaluation, so the parallel pool produces the
        # exact population trajectory of a serial run.
        results = yield CandidateBatch(tuple(population))
        scored = list(zip(results, population))

        for _ in range(ga_options.generations):
            next_gen: List[FlexRayConfig] = [
                cfg for _, cfg in sorted(scored, key=lambda rc: rc[0].cost_value)[
                    : ga_options.elite
                ]
            ]
            while len(next_gen) < ga_options.population:
                parent_a = _tournament(scored, rng, ga_options.tournament)
                parent_b = _tournament(scored, rng, ga_options.tournament)
                child = parent_a
                if rng.random() < ga_options.crossover_rate:
                    child = _crossover(system, parent_a, parent_b, bus, rng)
                if child is None:
                    child = parent_a
                if rng.random() < ga_options.mutation_rate:
                    mutated = _neighbour(system, child, bus, rng)
                    if mutated is not None:
                        child = mutated
                next_gen.append(child)
            results = yield CandidateBatch(tuple(next_gen))
            scored = list(zip(results, next_gen))
        return None  # driver default: lowest-cost feasible individual


def run_ga(system: System, ga_options: GAOptions) -> OptimisationResult:
    """Registry runner for the GA."""
    return SearchDriver(system, GAStrategy(ga_options)).run()


STRATEGY_SPEC = StrategySpec(
    name="ga",
    summary="Genetic algorithm over the full Section 6 design space",
    options_type=GAOptions,
    runner=run_ga,
)


def optimise_ga(
    system: System,
    options: BusOptimisationOptions = None,
    ga_options: GAOptions = None,
) -> OptimisationResult:
    """Evolve bus configurations; returns the best analysed individual."""
    ga_options = ga_options if ga_options is not None else GAOptions()
    return run_ga(system, ga_options.with_bus(options))


def _initial_population(
    system: System,
    options: BusOptimisationOptions,
    rng: random.Random,
    size: int,
) -> List[FlexRayConfig]:
    """BBC-shaped individuals with randomised DYN segment lengths.

    Individuals are deduplicated by configuration identity: when
    ``_neighbour`` repeatedly returns ``None`` (tiny design spaces) the
    naive loop seeds the whole population with one config and the first
    generation burns its evaluation budget on cache hits.  Duplicate
    draws are retried within a bounded budget before being accepted, so
    the population stays diverse yet the loop always terminates.
    """
    base = _initial_config(system, options)
    population = [base]
    seen = {base.cache_key()}
    lo, hi = dyn_segment_bounds(system, base.st_bus, options)
    attempts_left = 16 * size
    while len(population) < size:
        cfg = base
        if hi >= lo and hi > 0:
            cfg = base.with_dyn_length(rng.randint(lo, hi))
        mutated = _neighbour(system, cfg, options, rng)
        if mutated is not None:
            cfg = mutated
        key = cfg.cache_key()
        attempts_left -= 1
        if key in seen and attempts_left > 0:
            continue
        seen.add(key)
        population.append(cfg)
    return population


def _tournament(scored, rng: random.Random, k: int) -> FlexRayConfig:
    """Best of *k* random individuals."""
    picks = [scored[rng.randrange(len(scored))] for _ in range(max(1, k))]
    return min(picks, key=lambda rc: rc[0].cost_value)[1]


def _crossover(
    system: System,
    a: FlexRayConfig,
    b: FlexRayConfig,
    options: BusOptimisationOptions,
    rng: random.Random,
) -> Optional[FlexRayConfig]:
    """Structure crossover: static segment from one parent, dynamic
    segment length from the other, FrameIDs from a random parent choice
    per message (falling back to parent *a*'s map when the mix would be
    protocol-illegal)."""
    static_parent, dyn_parent = (a, b) if rng.random() < 0.5 else (b, a)
    frame_ids = {}
    for name in a.frame_ids:
        source = a if rng.random() < 0.5 else b
        frame_ids[name] = source.frame_ids.get(name, a.frame_ids[name])
    try:
        child = FlexRayConfig(
            static_slots=static_parent.static_slots,
            gd_static_slot=static_parent.gd_static_slot,
            n_minislots=dyn_parent.n_minislots,
            frame_ids=frame_ids,
            gd_minislot=a.gd_minislot,
            bits_per_mt=a.bits_per_mt,
            frame_overhead_bytes=a.frame_overhead_bytes,
        )
        child.validate_for(system)
    except ConfigurationError:
        try:
            child = FlexRayConfig(
                static_slots=static_parent.static_slots,
                gd_static_slot=static_parent.gd_static_slot,
                n_minislots=dyn_parent.n_minislots,
                frame_ids=dict(a.frame_ids),
                gd_minislot=a.gd_minislot,
                bits_per_mt=a.bits_per_mt,
                frame_overhead_bytes=a.frame_overhead_bytes,
            )
        except ConfigurationError:
            return None
    return child

"""Benchmark suites (Section 7).

The paper generates 7 sets of 25 applications for systems of 2..7 nodes.
:func:`paper_suite` reproduces one such set; suite sizes are parameters
so laptop runs can use smaller counts while keeping the same structure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, List

from repro.flexray.faults import IidFaults
from repro.model.system import System
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system


def paper_system(
    n_nodes: int,
    index: int,
    base: GeneratorConfig = None,
    seed: int = 2007,
) -> System:
    """Member *index* of the suite ``paper_suite(n_nodes, ..., seed)``.

    The per-member seed derivation is shared with :func:`paper_suite`,
    so any single suite member can be regenerated in isolation -- this
    is what lets the Fig. 9 runner name every system by its
    ``(n_nodes, index)`` coordinates and rebuild it from them.
    """
    base = base or GeneratorConfig()
    cfg = replace(base, n_nodes=n_nodes, seed=seed * 1_000 + n_nodes * 100 + index)
    return generate_system(cfg)


def paper_suite(
    n_nodes: int,
    count: int = 25,
    base: GeneratorConfig = None,
    seed: int = 2007,
) -> List[System]:
    """*count* systems of *n_nodes* nodes following the Section 7 recipe.

    Each system uses a distinct derived seed, so the suite is
    deterministic for a given (n_nodes, count, seed) triple.
    """
    return [paper_system(n_nodes, i, base, seed) for i in range(count)]


def fault_grid(
    rates: Iterable[float], seeds: Iterable[int] = (1, 2, 3)
) -> List[IidFaults]:
    """The (rate x seed) grid of i.i.d. channel-fault scenarios.

    Companion of the suite generators for robustness experiments: every
    suite member can be re-simulated under each scenario of the grid,
    and the grid is deterministic for a given (rates, seeds) pair just
    like the suites are for (n_nodes, count, seed).  Rate-0 scenarios
    are legal and byte-identical to the clean simulator -- include one
    to anchor a sweep's baseline.
    """
    return [IidFaults(rate=r, seed=s) for r in rates for s in seeds]

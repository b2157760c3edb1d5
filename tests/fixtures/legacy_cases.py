"""The fixed-seed optimiser runs pinned by the legacy-equivalence oracle.

Shared between the fixture generator (``gen_legacy_traces.py``, run once
against the pre-refactor implementations) and the equivalence test
(``tests/test_legacy_equivalence.py``, run forever against the unified
search runtime).  Every case must be fully deterministic: fixed seeds,
fixed options, synthetic systems regenerated from constants.
"""

from dataclasses import dataclass
from typing import Callable

from repro.core import (
    GAOptions,
    SAOptions,
    optimise_bbc,
    optimise_ga,
    optimise_obc,
    optimise_sa,
)
from repro.core.result import OptimisationResult
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import StrategyOptions, optimise
from repro.synth import paper_suite
from repro.synth.suite import paper_system

from tests.util import fig3_system, fig4_system


def _small_bus(**kw) -> BusOptimisationOptions:
    """Laptop-sized OBC budgets (mirrors the bench presets)."""
    return BusOptimisationOptions(
        ee_max_dyn_points=48,
        cf_candidates=64,
        max_extra_static_slots=1,
        max_slot_size_steps=1,
        **kw,
    )


@dataclass(frozen=True)
class LegacyCase:
    """One pinned optimiser run: a stable id plus a deterministic runner."""

    case_id: str
    run: Callable[[], OptimisationResult]


LEGACY_CASES = (
    LegacyCase("bbc_fig3", lambda: optimise_bbc(fig3_system())),
    LegacyCase("bbc_fig4", lambda: optimise_bbc(fig4_system())),
    LegacyCase(
        "obc_cf_fig4",
        lambda: optimise_obc(fig4_system(), method="curvefit"),
    ),
    LegacyCase(
        "obc_cf_paper3_no_early_stop",
        lambda: optimise_obc(
            paper_suite(3, count=1, seed=23)[0],
            _small_bus(stop_when_schedulable=False),
            "curvefit",
        ),
    ),
    LegacyCase(
        "obc_ee_paper3",
        lambda: optimise_obc(
            paper_suite(3, count=1, seed=23)[0], _small_bus(), "exhaustive"
        ),
    ),
    LegacyCase(
        "sa_fig4",
        lambda: optimise_sa(
            fig4_system(), sa_options=SAOptions(iterations=120, seed=11)
        ),
    ),
    LegacyCase(
        "sa_fig4_restarts",
        lambda: optimise_sa(
            fig4_system(),
            sa_options=SAOptions(iterations=60, seed=7, restarts=2),
        ),
    ),
    LegacyCase(
        "ga_fig4",
        lambda: optimise_ga(
            fig4_system(),
            ga_options=GAOptions(population=8, generations=5, seed=11),
        ),
    ),
)


def _fig9_bus() -> BusOptimisationOptions:
    """The Fig. 9 laptop preset (``benchmarks/fig9_common.bench_options``)."""
    return BusOptimisationOptions(
        max_dyn_points=32,
        ee_max_dyn_points=192,
        cf_candidates=128,
        max_extra_static_slots=1,
        max_slot_size_steps=2,
    )


@dataclass(frozen=True)
class DigestCase:
    """A pinned run too large for a JSON fixture (its trace holds ~10k
    points): the sha256 of its canonical ``result_to_dict`` output minus
    ``elapsed_seconds``, plus evaluations and cost for readable failures."""

    case_id: str
    run: Callable[[], OptimisationResult]
    sha256: str
    evaluations: int
    cost: float


DIGEST_CASES = (
    DigestCase(
        "obc_cf_fig9_paper4",
        lambda: optimise(
            paper_system(4, 0, seed=23), "obc-cf", StrategyOptions(bus=_fig9_bus())
        ),
        "400e5f7c186f1b6c11510547f33cbbbc2152a69c90a0942d6228be23d4e4f11a",
        114,
        634176.0,
    ),
)

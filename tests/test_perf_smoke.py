"""Quick perf-smoke exercise of the warm-analysis hot path.

This module covers the Python hot path: a miniature ST-heavy
DYN-length sweep through one warm :class:`AnalysisContext` -- the exact
code path the optimisers hammer (retimable schedule plan, certified
busy-window warm starts, dirty-tracked fix point) -- cross-checked
against fresh cold contexts, plus a two-strategy campaign on the
cruise-control case study through the full search runtime (registry
dispatch, search driver, checkpoint store).  The batched array
backend's smoke lives next to its contract tests
(``tests/test_backend.py``) under the same ``perf_smoke`` marker.
Everything is designed to finish in a few seconds, so the perf
plumbing stays covered by every tier-1 run.
"""

import time

import pytest

from repro.analysis import AnalysisContext
from repro.casestudy.cruise_control import cruise_controller
from repro.core.bbc import basic_configuration
from repro.core.campaign import CampaignOptions, campaign_matrix, run_campaign
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.synth import paper_suite


def _signature(result):
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        None if result.cost is None else result.cost.value,
        tuple(sorted(result.wcrt.items())),
    )


@pytest.mark.perf_smoke
def test_warm_sweep_fast_and_bit_identical():
    system = paper_suite(3, count=1, seed=23)[0]
    assert system.application.st_messages(), "smoke workload must be ST-heavy"
    options = BusOptimisationOptions()
    slot = min_static_slot(system, options)
    st_bus = len(system.st_sender_nodes()) * slot
    lo, hi = dyn_segment_bounds(system, st_bus, options)
    configs = [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, 24)
    ]

    context = AnalysisContext(system)
    t0 = time.perf_counter()
    warm = [context.analyse(c) for c in configs]
    warm_s = time.perf_counter() - t0

    # One schedule plan serves the whole sweep; with ST messages every
    # cycle length still gets its own (replayed) table.
    assert len(context._plan_cache) == 1
    assert len(context._schedule_cache) == len(
        {context.schedule_key(c, c.gd_cycle) for c in configs}
    )

    cold = [AnalysisContext(system).analyse(c) for c in configs]
    assert [_signature(r) for r in warm] == [_signature(r) for r in cold]

    # Loose sanity bound only -- wall-clock asserts are flaky on shared
    # machines; the real perf claims live in benchmarks/BENCH_*.json.
    assert warm_s < 10.0


@pytest.mark.perf_smoke
def test_cruise_control_campaign_smoke(tmp_path):
    """A two-strategy campaign on the cruise-control case study must fit
    in the tier-1 budget: BBC plus a budget-trimmed OBC/CF, dispatched by
    registry name through the search driver, checkpointed, and resumed
    instantly on the second run."""
    system = cruise_controller()
    systems = {"cruise": system}
    bus = BusOptimisationOptions(
        max_dyn_points=16,
        initial_cf_points=3,
        cf_candidates=64,
        cf_max_points=10,
        max_extra_static_slots=1,
        max_slot_size_steps=2,
    )
    jobs = campaign_matrix(systems, ["bbc", "obc-cf"], bus=bus)

    t0 = time.perf_counter()
    cold = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
    cold_s = time.perf_counter() - t0

    assert set(cold.results) == {"cruise__bbc", "cruise__obc-cf"}
    assert len(cold.executed) == 2
    for job in jobs:
        result = cold.results[job.job_id]
        assert result.evaluations > 0
        assert result.trace
        assert result.best is not None  # the case study is feasible

    # Resuming answers every job from the checkpoint store, identically.
    resumed = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
    assert len(resumed.resumed) == 2 and not resumed.executed
    for job_id, result in cold.results.items():
        assert resumed.results[job_id].trace == result.trace
        assert resumed.results[job_id].cost == result.cost

    # Loose wall-clock sanity bound, same rationale as above.
    assert cold_s < 10.0


@pytest.mark.perf_smoke
def test_fault_sweep_smoke(tmp_path):
    """A miniature fault sweep must fit the tier-1 budget: a bbc
    baseline campaign that first *times out* (recorded, not raised),
    then runs and checkpoints, then resumes from the checkpoint -- and
    a two-rate fault sweep over the result whose k-error bound check
    reports zero violations."""
    from benchmarks.bench_fault_sweep import fault_sweep_rows

    system = paper_suite(2, count=1, seed=23)[0]
    systems = {"smoke": system}
    jobs = campaign_matrix(systems, ["bbc"])

    t0 = time.perf_counter()
    # A simulated job timeout: the campaign completes and records it.
    timed_out = run_campaign(
        systems,
        jobs,
        checkpoint_dir=str(tmp_path),
        options=CampaignOptions(job_timeout=1e-4, retry_backoff=0.0),
    )
    assert set(timed_out.failures) == {"smoke__bbc"}
    assert timed_out.failures["smoke__bbc"].kind == "timeout"

    # Without the timeout the job runs and checkpoints...
    ran = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
    assert ran.executed == ("smoke__bbc",)
    config = ran.results["smoke__bbc"].config
    assert config is not None

    # ...and the next campaign resumes instead of re-optimising.
    resumed = run_campaign(systems, jobs, checkpoint_dir=str(tmp_path))
    assert resumed.resumed == ("smoke__bbc",) and not resumed.executed

    # Two error rates through the sweep core: rate 0 is the clean
    # anchor, the faulty rate must keep the k-error bound sound.
    rows = fault_sweep_rows(system, config, rates=(0.0, 0.2), seeds=(1,))
    assert rows[0]["max_retransmissions"] == 0
    assert rows[0]["max_wcrt_inflation"] == 1.0
    assert all(row["bound_violations"] == 0 for row in rows)

    # Loose wall-clock sanity bound, same rationale as above.
    assert time.perf_counter() - t0 < 10.0

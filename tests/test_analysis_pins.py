"""sha256 pins of whole optimiser runs' exact analyses and of plan blobs.

Each digest folds ``(config.cache_key(), wcrt items, converged, cost)``
of every exact analysis an optimiser run (or a single OBC/EE sweep)
makes, in call order.  The digests were computed with the name-keyed
holistic fix point that preceded the int-row structure record, so they
pin the rewrite to its reference: any change to a response time, its
key order, a convergence flag or a cost shows up here.

The seed-reference pin folds a 64-point BBC-shaped DYN-length sweep of
``paper_system(4, 0, seed=23)`` through the seed-era reference analysis (every quantity re-derived per call, the
DYN interference sets on every fix-point iteration), computed before
that reference copy was deleted; the warm context, the cold
``analyse_system`` path and the parallel evaluator must all match it.

The OBC/CF pin holds on the compiled backend too, where the estimate
rounds are scored by the C curve-fit scorer.

The plan-blob pin covers the bytes the compiled backend's C plan is
parsed from, for the systems of CI's backend sweep.
"""

import hashlib
from dataclasses import replace
from unittest import mock

import pytest

from repro.analysis import AnalysisContext, analyse_system
from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisOptions
from repro.core.bbc import basic_configuration
from repro.core.obc import _static_variants
from repro.core.sa import SAOptions
from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    dyn_segment_bounds,
    min_static_slot,
    sweep_lengths,
)
from repro.core.strategies import StrategyOptions, optimise
from repro.synth.suite import paper_system

from tests.util import fig4_system

#: The Fig. 9 laptop presets (``benchmarks/fig9_common.bench_options``
#: and ``sa_options``).
FIG9_BUS = BusOptimisationOptions(
    max_dyn_points=32,
    ee_max_dyn_points=192,
    cf_candidates=128,
    max_extra_static_slots=1,
    max_slot_size_steps=2,
)
FIG9_SA = SAOptions(iterations=220, seed=7, bus=FIG9_BUS)


def _fold(digest, key, result):
    digest.update(
        repr(
            (
                key,
                tuple(result.wcrt.items()),
                result.converged,
                result.cost,
            )
        ).encode()
    )


def optimiser_digest(system, algorithm, options):
    """``(sha256, analyses)`` over every exact analysis of one run, in
    the order the evaluator records them: a full result, or a DYN
    sweep's row (same response times, convergence and cost)."""
    return _run_digest(system, algorithm, options)[:2]


def _run_digest(system, algorithm, options):
    """:func:`optimiser_digest` plus the run's result."""
    digest = hashlib.sha256()
    count = 0
    note = Evaluator._note

    def logged(evaluator, config, n_minislots, result):
        nonlocal count
        _fold(digest, config.cache_keys((n_minislots,))[0], result)
        count += 1
        return note(evaluator, config, n_minislots, result)

    with mock.patch.object(Evaluator, "_note", logged):
        result = optimise(system, algorithm, options)
    return digest.hexdigest(), count, result


def sweep_digest(analysis: AnalysisOptions):
    """``(sha256, analyses)`` over the first OBC/EE static variant's
    192-point DYN sweep of ``paper_system(3, 1, seed=23)``."""
    system = paper_system(3, 1, seed=23)
    template, lo, hi = _static_variants(system, FIG9_BUS)[0]
    context = AnalysisContext(system, analysis)
    digest = hashlib.sha256()
    configs = [template.with_dyn_length(n) for n in sweep_lengths(lo, hi, 192)]
    for config in configs:
        _fold(digest, config.cache_key(), context.analyse(config))
    return digest.hexdigest(), len(configs)


#: (algorithm, options) -> (sha256, exact analyses) on
#: ``paper_system(3, 1, seed=23)``.
OPTIMISER_PINS = {
    "obc-ee": (
        "306f3af070e24cb3c4e1b6094a3548d94f7c79c9ad4baa11a300c33b85e7f041",
        1152,
    ),
    "obc-cf": (
        "0240e7bb4286fcf4de7359f2f778b8e928b692bc350883fa076df9d9fa4fae15",
        144,
    ),
    "sa": (
        "cbe39f9bd857a9571bb45bdbd850c5de4cd21aa2816d569554e0aa7a59e8bbcd",
        187,
    ),
}

SWEEP_PINS = {
    "fault_hypothesis=1": (
        AnalysisOptions(fault_hypothesis=1),
        "91b817b0ab4e6a82dd4200fcfe68f9bea0ae366ddd65abc6139cfeeef5389366",
    ),
    "dyn_fill_strategy=exact": (
        AnalysisOptions(dyn_fill_strategy="exact"),
        "33b0daa6ed469522e5fd3a021f6f01b748599b56d7122803ade87c85665e542b",
    ),
}


@pytest.mark.parametrize("algorithm", sorted(OPTIMISER_PINS))
def test_optimiser_analyses_match_pin(algorithm):
    options = FIG9_SA if algorithm == "sa" else StrategyOptions(bus=FIG9_BUS)
    got = optimiser_digest(paper_system(3, 1, seed=23), algorithm, options)
    assert got == OPTIMISER_PINS[algorithm]


def _trace_hex(result):
    return [
        (p.n_static_slots, p.gd_static_slot, p.n_minislots, p.cost.hex(),
         p.exact)
        for p in result.trace
    ]


@pytest.mark.native
@pytest.mark.skipif(
    native_or_none() is None,
    reason="needs the compiled repro[native] extra",
)
def test_obc_cf_native_matches_pin():
    """OBC/CF on the compiled backend: its exact analyses match the pin,
    every estimate round is scored in C, and the whole trace, estimates
    included, equals the Python run's float for float."""
    native = native_or_none()
    system = paper_system(3, 1, seed=23)
    handed = []
    score = native.score_curves

    def counted(*args):
        costs = score(*args)
        handed.append(costs is None)
        return costs

    bus = replace(FIG9_BUS, analysis=AnalysisOptions(backend="native"))
    with mock.patch.object(native, "score_curves", counted):
        digest, count, result = _run_digest(
            system, "obc-cf", StrategyOptions(bus=bus)
        )
    assert (digest, count) == OPTIMISER_PINS["obc-cf"]
    assert handed and not any(handed)
    python = optimise(system, "obc-cf", StrategyOptions(bus=FIG9_BUS))
    assert _trace_hex(result) == _trace_hex(python)
    assert sum(not p.exact for p in result.trace) > 1000


@pytest.mark.parametrize("case", sorted(SWEEP_PINS))
def test_ee_sweep_matches_pin(case):
    analysis, pin = SWEEP_PINS[case]
    assert sweep_digest(analysis) == (pin, 192)


def _seed_signature(result):
    """What the seed-reference pin folds per analysis (WCRTs sorted)."""
    return (
        result.feasible,
        result.schedulable,
        result.converged,
        result.failure,
        None if result.cost is None else result.cost.value,
        tuple(sorted(result.wcrt.items())),
    )


def _seed_mode_results(mode, system, configs):
    if mode == "warm":
        context = AnalysisContext(system)
        return [context.analyse(c) for c in configs]
    if mode == "cold":
        return [analyse_system(system, c) for c in configs]
    with Evaluator(
        system, BusOptimisationOptions(parallel_workers=2)
    ) as evaluator:
        return evaluator.analyse_many(configs)


#: (sha256, analyses) over ``_seed_signature`` of the seed-era reference
#: analysis on the 64-point ``_backend_sweep`` of ``paper_system(4, 0)``.
SEED_REFERENCE_PIN = (
    "eaa6e9d478cff0beb54b105dbaa8995cd3b6f8ee88fe6e60cb53591cc0343dbe",
    64,
)


@pytest.mark.parametrize("mode", ["warm", "cold", "parallel"])
def test_sweep_matches_seed_reference_pin(mode):
    system = paper_system(4, 0, seed=23)
    results = _seed_mode_results(mode, system, _backend_sweep(system, 64))
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(_seed_signature(result)).encode())
    assert (digest.hexdigest(), len(results)) == SEED_REFERENCE_PIN


def _backend_sweep(system, points=16):
    """BBC configurations over the legal DYN lengths (CI's backend sweep
    takes 16 points)."""
    options = BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, options) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, options)
    return [
        basic_configuration(system, n, options)
        for n in sweep_lengths(lo, hi, points)
    ]


def plan_blob_digest():
    """``(sha256, groups)`` over the plan blob of every group of the
    backend sweep, in first-candidate order."""
    from repro.analysis.backend.native import plan_blob

    digest = hashlib.sha256()
    groups = 0
    systems = [fig4_system()] + [
        paper_system(*member, seed=23) for member in ((3, 0), (5, 0))
    ]
    for system in systems:
        ctx = AnalysisContext(system, AnalysisOptions(backend="native"))
        configs = _backend_sweep(system)
        for config in configs:
            ctx.analyse(config)
        seen = set()
        for config in configs:
            key = (
                ctx.schedule_key(config, config.gd_cycle),
                ctx.structure_key(config),
            )
            plan = ctx._backend_plans.get(key)
            if plan is None or key in seen or not plan.stair:
                continue
            seen.add(key)
            digest.update(plan_blob(plan).tobytes())
            groups += 1
    return digest.hexdigest(), groups


#: The plan-blob pin: (sha256, stair-safe groups).
PLAN_BLOB_PIN = (
    "5db8fc8c73d20a8801e4a0ab312800969d147e59e58a94b7bb8710bc3de177c6",
    33,
)


@pytest.mark.native
@pytest.mark.skipif(
    native_or_none() is None,
    reason="needs the compiled repro[native] extra",
)
def test_plan_blobs_match_pin():
    assert plan_blob_digest() == PLAN_BLOB_PIN

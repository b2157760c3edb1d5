"""The simulator referees the analysis at Fig. 9 scale.

The optimisers' best configurations on ``paper_system`` members are
simulated from the table the analysis result carries -- a lazy view of
the replayed schedule -- on a clean channel and under injected faults.
Every simulated response time must stay within the analysed WCRT; under
faults the analysis charges the run's observed retransmission count as
its k-error hypothesis.  A second part checks that results coming back
from the parallel evaluation pool carry the same tables as serial ones.
"""

import pickle

import pytest

from repro.analysis.holistic import AnalysisOptions, analyse_system
from repro.core import optimise_bbc, optimise_sa
from repro.core.obc import _static_variants
from repro.core.sa import SAOptions
from repro.core.dynlen import sweep_lengths
from repro.core.search import BusOptimisationOptions, Evaluator
from repro.flexray.faults import IidFaults
from repro.flexray.simulator import SimulationOptions, simulate
from repro.synth.suite import paper_system

from tests.test_replay_oracle import EE_BUS, fingerprint

MEMBERS = [(3, 1), (4, 0)]


def _best_configurations(system):
    bus = BusOptimisationOptions(max_dyn_points=8)
    results = {
        "BBC": optimise_bbc(system, bus),
        "SA": optimise_sa(system, bus, SAOptions(iterations=24, seed=7)),
    }
    return {name: r.best for name, r in results.items()}


def _check_bounded(simulated, wcrt):
    assert simulated.response_times
    for (name, instance), r in simulated.response_times.items():
        assert r <= wcrt[name], (name, instance, r, wcrt[name])


@pytest.mark.parametrize("member", MEMBERS, ids=lambda m: f"paper_system{m}")
def test_analysis_bounds_simulation_of_best_configurations(member):
    system = paper_system(*member, seed=23)
    for strategy, best in _best_configurations(system).items():
        assert best is not None and best.feasible, strategy
        table = best.table
        # The result's table is a view: nothing is built until read.
        assert table.record is not None and table._tasks is None
        clean = simulate(
            system, best.config, SimulationOptions(record_trace=False), table
        )
        assert clean.all_finished, strategy
        _check_bounded(clean, best.wcrt)

        faulty = simulate(
            system,
            best.config,
            SimulationOptions(
                record_trace=False, faults=IidFaults(rate=0.05, seed=3)
            ),
            table,
        )
        k = faulty.total_retransmissions
        assert k > 0, strategy
        bound = analyse_system(
            system, best.config, AnalysisOptions(fault_hypothesis=k)
        )
        _check_bounded(faulty, bound.wcrt)


def _sweep(n_points):
    system = paper_system(3, 1, seed=23)
    template, lo, hi = _static_variants(system, EE_BUS)[0]
    return system, [
        template.with_dyn_length(n) for n in sweep_lengths(lo, hi, n_points)
    ]


def _fingerprints(results):
    return [
        fingerprint(r.table, {}) if r.table is not None else r.failure
        for r in results
    ]


def test_pool_results_carry_the_serial_tables():
    """Results from worker processes unpickle to lazy views whose
    fingerprints equal the serial run's."""
    system, configs = _sweep(16)
    serial = Evaluator(system, BusOptimisationOptions()).analyse_many(configs)
    pooled_evaluator = Evaluator(
        system, BusOptimisationOptions(parallel_workers=2)
    )
    try:
        pooled = pooled_evaluator.analyse_many(configs)
        assert not pooled_evaluator._parallel_broken
    finally:
        pooled_evaluator.close()
    for result in pooled:
        assert result.table.record is not None
        assert result.table._tasks is None  # still unmaterialised
    assert _fingerprints(pooled) == _fingerprints(serial)
    assert [r.wcrt for r in pooled] == [r.wcrt for r in serial]


def test_view_pickles_as_its_record():
    system, configs = _sweep(4)
    table = analyse_system(system, configs[0]).table
    expected = fingerprint(table, {})
    materialised = pickle.loads(pickle.dumps(table))
    assert table._tasks is not None  # the fingerprint built the entries...
    assert materialised._tasks is None  # ...but they are not pickled
    assert materialised.record is not None
    assert fingerprint(materialised, {}) == expected
    assert materialised.config == table.config

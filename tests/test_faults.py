"""Channel fault models, retransmission simulation, k-error bound.

Three layers under test:

1. the fault models themselves (:mod:`repro.flexray.faults`):
   validation, window normalisation, deterministic resolution;
2. the fault-injecting simulator: zero-fault identity (a rate-0 plan is
   byte-identical to a clean run -- property-tested over configuration
   shapes), retransmission mechanics for ST and DYN frames;
3. the k-error analysis bound
   (:attr:`~repro.analysis.holistic.AnalysisOptions.fault_hypothesis`):
   validation, ``k=0`` identity, and the fuzz referee -- for every
   faulty run the bound at k = observed retransmissions must cover
   every simulated response time, with an explicit divergence counter
   asserted to be 0.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import AnalysisContext, analyse_system
from repro.analysis.backend import native_or_none
from repro.analysis.holistic import AnalysisOptions
from repro.errors import ConfigurationError, ModelError
from repro.flexray.events import EventKind
from repro.flexray.faults import (
    NO_FAULTS,
    BlackoutFaults,
    FaultPlan,
    GilbertElliottFaults,
    IidFaults,
    resolve_faults,
)
from repro.flexray.simulator import SimulationOptions, simulate

from tests.util import (
    FIG4_FRAME_IDS,
    basic_config,
    bound_scenario_systems,
    fig3_system,
    fig4_system,
    fuzz_faults,
)


# ----------------------------------------------------------------------
# fault models
# ----------------------------------------------------------------------
class TestFaultModels:
    def test_rate_validation(self):
        with pytest.raises(ModelError, match="probability"):
            FaultPlan(rate=1.5)
        with pytest.raises(ModelError, match="probability"):
            FaultPlan(burst_rate=-0.1)
        with pytest.raises(ModelError, match="probability"):
            IidFaults(rate=2.0)
        with pytest.raises(ModelError, match="good_to_bad"):
            GilbertElliottFaults(good_to_bad=0.0, bad_to_good=0.5)

    def test_window_validation_and_merge(self):
        with pytest.raises(ModelError, match="start < end"):
            FaultPlan(blackouts=((5, 5),))
        plan = FaultPlan(blackouts=((30, 40), (0, 10), (8, 20)))
        assert plan.blackouts == ((0, 20), (30, 40))
        assert plan.rate_at(5) == 1.0
        assert plan.rate_at(20) == 0.0
        assert plan.rate_at(35) == 1.0

    def test_active_flag(self):
        assert not NO_FAULTS.active
        assert not FaultPlan(burst_rate=0.5).active  # no windows
        assert not FaultPlan(burst_windows=((0, 5),)).active  # rate 0
        assert FaultPlan(rate=0.01).active
        assert FaultPlan(burst_rate=0.5, burst_windows=((0, 5),)).active
        assert FaultPlan(blackouts=((0, 5),)).active

    def test_corrupts_is_deterministic_and_rate_driven(self):
        plan = FaultPlan(seed=7, rate=0.5)
        draws = [plan.corrupts("m1", i, 0, 0) for i in range(200)]
        assert draws == [plan.corrupts("m1", i, 0, 0) for i in range(200)]
        # Both outcomes occur, in roughly even proportion.
        assert 40 < sum(draws) < 160
        # Blackouts corrupt everything; rate 0 corrupts nothing.
        assert FaultPlan(blackouts=((0, 10),)).corrupts("m1", 0, 0, 5)
        assert not NO_FAULTS.corrupts("m1", 0, 0, 5)

    def test_gilbert_elliott_resolution_is_deterministic(self):
        model = GilbertElliottFaults(
            good_to_bad=0.3, bad_to_good=0.4, bad_rate=0.9, seed=11
        )
        plan = model.resolve(max_time=10_000, cycle_length=100)
        assert plan == model.resolve(max_time=10_000, cycle_length=100)
        assert plan.burst_rate == 0.9
        assert plan.rate == 0.0
        assert plan.burst_windows  # chain visits the bad state
        for start, end in plan.burst_windows:
            assert 0 <= start < end <= 10_100
            assert start % 100 == 0 and end % 100 == 0
        with pytest.raises(ModelError, match="cycle_length"):
            model.resolve(max_time=100, cycle_length=0)

    def test_resolve_faults_dispatch(self):
        assert resolve_faults(None, 100, 10) is NO_FAULTS
        plan = FaultPlan(rate=0.2)
        assert resolve_faults(plan, 100, 10) is plan
        resolved = resolve_faults(BlackoutFaults(((5, 9),)), 100, 10)
        assert resolved.blackouts == ((5, 9),)
        with pytest.raises(ModelError, match="FaultModel"):
            resolve_faults(0.5, 100, 10)


# ----------------------------------------------------------------------
# zero-fault identity (satellite: property-tested)
# ----------------------------------------------------------------------
def _run(system, config, faults):
    return simulate(system, config, SimulationOptions(faults=faults))


def _assert_identical(a, b):
    assert a.trace == b.trace
    assert a.response_times == b.response_times
    assert a.observed_wcrt == b.observed_wcrt
    assert a.deadline_misses == b.deadline_misses
    assert a.unfinished == b.unfinished
    assert a.horizon == b.horizon
    assert dict(b.retransmissions) == {}


class TestZeroFaultIdentity:
    @given(
        minislots=st.integers(min_value=13, max_value=40),
        slot=st.integers(min_value=8, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=25, deadline=None)
    def test_rate_zero_is_byte_identical_dyn(self, minislots, slot, seed):
        system = fig4_system()
        config = basic_config(
            gd_static_slot=slot,
            n_minislots=minislots,
            frame_ids=FIG4_FRAME_IDS,
        )
        base = _run(system, config, None)
        _assert_identical(base, _run(system, config, IidFaults(0.0, seed=seed)))
        _assert_identical(base, _run(system, config, FaultPlan(seed=seed)))

    @given(slot=st.integers(min_value=8, max_value=14))
    @settings(max_examples=10, deadline=None)
    def test_rate_zero_is_byte_identical_static(self, slot):
        system = fig3_system()
        config = basic_config(gd_static_slot=slot)
        base = _run(system, config, None)
        _assert_identical(base, _run(system, config, IidFaults(0.0)))


# ----------------------------------------------------------------------
# retransmission mechanics
# ----------------------------------------------------------------------
class TestRetransmission:
    def test_dyn_frame_retransmits_after_blackout(self):
        system = fig4_system()
        config = basic_config(frame_ids=FIG4_FRAME_IDS)
        clean = _run(system, config, None)
        faulty = _run(
            system, config, BlackoutFaults(((0, 2 * config.gd_cycle),))
        )
        assert faulty.total_retransmissions > 0
        corrupted = [
            e for e in faulty.trace if e.kind is EventKind.FRAME_CORRUPTED
        ]
        assert corrupted
        # Retransmission costs bus time: no message finishes earlier,
        # and at least one finishes strictly later.
        later = 0
        for name in ("m1", "m2", "m3"):
            assert faulty.observed_wcrt[name] >= clean.observed_wcrt[name]
            later += faulty.observed_wcrt[name] > clean.observed_wcrt[name]
        assert later > 0
        # The retry attempt is visible in the trace detail.
        assert any(
            "retry" in e.detail
            for e in faulty.trace
            if e.kind is EventKind.DYN_TX_START
        )

    def test_st_frame_retries_next_cycle(self):
        system = fig3_system()
        config = basic_config()
        clean = _run(system, config, None)
        faulty = _run(system, config, BlackoutFaults(((0, config.gd_cycle),)))
        assert faulty.total_retransmissions > 0
        # Every ST frame of cycle 0 was corrupted and went out one full
        # cycle later on its next static slot.
        assert any(
            "retry" in e.detail
            for e in faulty.trace
            if e.kind is EventKind.ST_FRAME
        )
        assert faulty.retransmissions
        for key, count in faulty.retransmissions.items():
            # The blackout covers exactly cycle 0, so each corrupted
            # frame is retried once, one cycle later.
            assert count == 1
            assert (
                faulty.response_times[key]
                == clean.response_times[key] + config.gd_cycle
            )

    def test_retransmission_counts_are_per_instance(self):
        system = fig4_system()
        config = basic_config(frame_ids=FIG4_FRAME_IDS)
        result = _run(
            system, config, BlackoutFaults(((0, config.gd_cycle),))
        )
        for (name, instance), count in result.retransmissions.items():
            assert count >= 1
            assert instance >= 0
            assert name in ("m1", "m2", "m3")
        assert result.total_retransmissions == sum(
            result.retransmissions.values()
        )


# ----------------------------------------------------------------------
# k-error analysis bound
# ----------------------------------------------------------------------
class TestFaultHypothesis:
    def test_validation(self):
        system = fig3_system()
        config = basic_config()
        for bad in (True, -1, 1.5, "2"):
            with pytest.raises(ConfigurationError, match="fault_hypothesis"):
                analyse_system(
                    system, config, AnalysisOptions(fault_hypothesis=bad)
                )

    def test_k0_is_identical_to_clean_analysis(self):
        for system, config in bound_scenario_systems():
            clean = analyse_system(system, config)
            k0 = analyse_system(
                system, config, AnalysisOptions(fault_hypothesis=0)
            )
            assert k0.wcrt == clean.wcrt
            assert k0.schedulable == clean.schedulable

    def test_bound_grows_monotonically_in_k(self):
        system = fig4_system()
        config = basic_config(frame_ids=FIG4_FRAME_IDS)
        previous = None
        for k in range(4):
            bound = analyse_system(
                system, config, AnalysisOptions(fault_hypothesis=k)
            )
            if previous is not None:
                for name, value in previous.items():
                    assert bound.wcrt[name] >= value
            previous = bound.wcrt

    def test_fuzz_bound_covers_every_faulty_run(self):
        """The soundness referee: 0 violations over the whole fuzz grid."""
        violations = 0
        checked = 0
        for system, config in bound_scenario_systems():
            for faults in fuzz_faults(config):
                result = simulate(
                    system,
                    config,
                    SimulationOptions(record_trace=False, faults=faults),
                )
                k = result.total_retransmissions
                bound = analyse_system(
                    system, config, AnalysisOptions(fault_hypothesis=k)
                )
                for (name, _), r in result.response_times.items():
                    checked += 1
                    if r > bound.wcrt[name]:
                        violations += 1
        assert checked > 100
        assert violations == 0

    @pytest.mark.native
    @pytest.mark.skipif(
        native_or_none() is None,
        reason="needs the compiled repro[native] extra",
    )
    def test_numpy_backend_computes_faults_natively(self, monkeypatch):
        """fault_hypothesis never forces the python path on the compiled
        backend (the test keeps its name from the retired numpy rung).

        The C kernels charge the static ``k * gd_cycle`` slips and the
        constant per-error DYN cycles inside the lowered plans, so a
        fault batch runs compiled -- no delegation to the Python
        oracle -- and stays bit-identical to it.
        """
        system = fig4_system()
        config = basic_config(frame_ids=FIG4_FRAME_IDS)
        python = {
            k: analyse_system(
                system, config, AnalysisOptions(fault_hypothesis=k)
            )
            for k in (0, 1, 2)
        }

        def no_delegation(*args):
            raise AssertionError("the group was delegated to the oracle")

        monkeypatch.setattr(AnalysisContext, "_fix_point", no_delegation)
        for k, expected in python.items():
            options = AnalysisOptions(backend="native", fault_hypothesis=k)
            via_native = AnalysisContext(system, options).analyse(config)
            assert via_native.wcrt == expected.wcrt
            assert via_native.schedulable == expected.schedulable


"""Unit tests for the shared optimiser machinery."""

import pytest

from repro.core.search import (
    BusOptimisationOptions,
    Evaluator,
    better,
    dyn_segment_bounds,
    min_static_slot,
    quota_slot_assignment,
    sweep_lengths,
)
from repro.errors import ConfigurationError, OptimisationError
from repro.flexray import params

from tests.util import (
    basic_config,
    dyn_msg,
    fig3_system,
    fig4_system,
    fps_task,
    scs_task,
    single_graph_system,
    st_msg,
)


class TestSweepLengths:
    def test_full_range_when_small(self):
        assert sweep_lengths(5, 9, 100) == [5, 6, 7, 8, 9]

    def test_endpoints_always_included(self):
        pts = sweep_lengths(10, 1000, 12)
        assert pts[0] == 10 and pts[-1] == 1000
        assert len(pts) <= 12

    def test_empty_range(self):
        assert sweep_lengths(5, 4, 10) == []

    def test_single_point_cap(self):
        assert sweep_lengths(5, 100, 1) == [5]

    def test_rejects_zero_cap(self):
        with pytest.raises(OptimisationError):
            sweep_lengths(0, 10, 0)


class TestMinStaticSlot:
    def test_fits_largest_st_frame(self):
        assert min_static_slot(fig3_system(), BusOptimisationOptions()) == 4

    def test_default_when_no_st_messages(self):
        assert min_static_slot(fig4_system(), BusOptimisationOptions()) == 1

    def test_overhead_included(self):
        options = BusOptimisationOptions(frame_overhead_bytes=8)
        assert min_static_slot(fig3_system(), options) == 12

    @pytest.mark.parametrize(
        "bad", [{"bits_per_mt": 0}, {"frame_overhead_bytes": -1}]
    )
    def test_bus_speed_rejected_before_any_division(self, bad):
        with pytest.raises(ConfigurationError):
            BusOptimisationOptions(**bad)

    @pytest.mark.parametrize("bad", [0, -1, True, 1.5])
    def test_bad_gd_minislot_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="gd_minislot"):
            BusOptimisationOptions(gd_minislot=bad)


class TestDynBounds:
    def test_no_dyn_messages(self):
        assert dyn_segment_bounds(fig3_system(), 16, BusOptimisationOptions()) == (
            0,
            0,
        )

    def test_lower_bound_fits_largest_frame_in_highest_slot(self):
        lo, hi = dyn_segment_bounds(fig4_system(), 16, BusOptimisationOptions())
        # m1 needs 9 minislots and the highest of 3 unique FrameIDs adds
        # 2 slot-counter minislots: 9 + 3 - 1 = 11.
        assert lo == 11
        assert hi == params.MAX_MINISLOTS  # tighter than the 16 ms budget

    def test_lower_bound_is_message_count_when_frames_small(self):
        tasks = [
            fps_task("a", wcet=1, node="N1", priority=1),
            fps_task("b", wcet=1, node="N2", priority=1),
        ]
        msgs = [dyn_msg(f"m{i}", 1, "a", "b", priority=i) for i in range(5)]
        sys_ = single_graph_system(tasks, msgs)
        lo, _ = dyn_segment_bounds(sys_, 0, BusOptimisationOptions())
        assert lo == 5

    def test_hi_respects_protocol_minislot_cap(self):
        lo, hi = dyn_segment_bounds(fig4_system(), 0, BusOptimisationOptions())
        assert hi == params.MAX_MINISLOTS

    def test_empty_range_when_static_eats_cycle(self):
        lo, hi = dyn_segment_bounds(
            fig4_system(), params.MAX_CYCLE_MT - 2, BusOptimisationOptions()
        )
        assert hi < lo


class TestQuotaAssignment:
    def test_one_slot_per_sender_minimum(self):
        assert quota_slot_assignment(fig3_system(), 2) == ("N1", "N2")

    def test_surplus_goes_to_heavier_sender(self):
        # N2 sends 2 ST messages, N1 sends 1.
        slots = quota_slot_assignment(fig3_system(), 4)
        assert slots.count("N2") == 3 or slots.count("N2") == 2
        assert slots.count("N1") >= 1
        assert len(slots) == 4

    def test_round_robin_interleaving(self):
        slots = quota_slot_assignment(fig3_system(), 3)
        # quotas: N1 1, N2 2 -> interleaved N1 N2 N2
        assert slots == ("N1", "N2", "N2")

    def test_rejects_too_few_slots(self):
        with pytest.raises(OptimisationError):
            quota_slot_assignment(fig3_system(), 1)

    def test_no_st_senders(self):
        assert quota_slot_assignment(fig4_system(), 0) == ()


class TestEvaluator:
    def test_counts_and_caches(self):
        sys_ = fig3_system()
        ev = Evaluator(sys_, BusOptimisationOptions())
        cfg = basic_config(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=0)
        r1 = ev.analyse(cfg)
        r2 = ev.analyse(cfg)
        assert r1 is r2
        assert ev.evaluations == 1
        assert len(ev.trace) == 1 and ev.trace[0].exact

    def test_note_estimate_traced(self):
        sys_ = fig3_system()
        ev = Evaluator(sys_, BusOptimisationOptions())
        cfg = basic_config(n_minislots=5)
        ev.note_estimates(cfg, [(7, -12.0), (3, 4.0)])
        assert [(p.n_minislots, p.cost, p.schedulable) for p in ev.trace] == [
            (7, -12.0, True),
            (3, 4.0, False),
        ]
        assert not any(p.exact for p in ev.trace)
        assert ev.trace[0].n_static_slots == cfg.n_static_slots
        assert ev.evaluations == 0

    def test_failed_batch_leaves_no_placeholder_in_the_cache(self):
        sys_ = fig3_system()
        ev = Evaluator(sys_, BusOptimisationOptions())
        cfgs = [
            basic_config(
                static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=n
            )
            for n in (0, 5)
        ]
        ev.analyse(cfgs[0])

        def fail(configs):
            raise RuntimeError("analysis crashed")

        ev._map = fail
        with pytest.raises(RuntimeError):
            ev.analyse_many(cfgs)
        del ev._map
        assert ev.evaluations == 1 and len(ev.trace) == 1
        # The half-run batch left no result placeholder behind.
        assert [r.config for r in ev.analyse_many(cfgs)] == cfgs
        assert ev.evaluations == 2


class TestBetter:
    def test_none_comparisons(self):
        assert not better(None, None)

    def test_lower_cost_wins(self):
        sys_ = fig3_system()
        ev = Evaluator(sys_, BusOptimisationOptions())
        a = ev.analyse(
            basic_config(static_slots=("N1", "N2"), gd_static_slot=4, n_minislots=0)
        )
        b = ev.analyse(
            basic_config(static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=0)
        )
        assert better(a, b) == (a.cost_value < b.cost_value)
        assert better(a, None)
        assert not better(None, a)

"""Unit tests for the DYN message response-time analysis (Section 5.1)."""

import pytest

from repro.analysis.dyn import (
    dyn_message_busy_window,
    interference_sets,
    resolved_busy_window,
    sigma,
)
from repro.core.config import FlexRayConfig
from repro.errors import AnalysisError

from tests.util import fig4_system


def make_config(frame_ids, n_minislots=13):
    return FlexRayConfig(
        static_slots=("N1", "N2"),
        gd_static_slot=8,
        n_minislots=n_minislots,
        frame_ids=frame_ids,
    )


PERIODS = lambda name: 200  # noqa: E731 - all fig4 activities have period 200
CAP = 100_000


class TestInterferenceSets:
    def test_shared_frame_id_scenario(self):
        # Fig. 4 Table A: m1 -> 1, m2 -> 2, m3 -> 1.
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 1})
        app = sys_.application
        s3 = interference_sets(app.message("m3"), cfg, sys_)
        assert [m.name for m in s3.hp] == ["m1"]
        assert s3.lf == () and s3.lower_slots == 0
        s2 = interference_sets(app.message("m2"), cfg, sys_)
        assert {m.name for m in s2.lf} == {"m1", "m3"}
        assert s2.hp == () and s2.lower_slots == 1

    def test_unique_frame_id_scenario(self):
        # Fig. 4 Table B: m1 -> 1, m2 -> 2, m3 -> 3.
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        app = sys_.application
        s3 = interference_sets(app.message("m3"), cfg, sys_)
        assert s3.hp == ()
        assert {m.name for m in s3.lf} == {"m1", "m2"}
        assert s3.lower_slots == 2

    def test_higher_priority_is_smaller_value(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 1})
        app = sys_.application
        s1 = interference_sets(app.message("m1"), cfg, sys_)
        assert s1.hp == ()  # m3 has a larger priority value -> lower priority

    def test_rejects_st_message(self):
        from tests.util import fig3_system

        sys_ = fig3_system()
        cfg = FlexRayConfig(
            static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=4
        )
        with pytest.raises(AnalysisError):
            interference_sets(sys_.application.message("m1"), cfg, sys_)


class TestSigma:
    def test_first_slot(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 1})
        # gdCycle 29, STbus 16, f=1 -> sigma = 13 (whole DYN segment)
        assert sigma(sys_.application.message("m1"), cfg) == 13

    def test_later_slot_smaller_sigma(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        assert sigma(sys_.application.message("m3"), cfg) == 11


class TestBusyWindow:
    def test_no_interference_first_slot(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        m1 = sys_.application.message("m1")
        r = dyn_message_busy_window(m1, cfg, sys_, {}, PERIODS, CAP)
        # sigma (13) + 0 filled cycles + STbus (16)
        assert r.converged and r.value == 29

    def test_hp_message_costs_one_cycle(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 1})
        m3 = sys_.application.message("m3")
        r = dyn_message_busy_window(m3, cfg, sys_, {}, PERIODS, CAP)
        # sigma (13) + 1 cycle for m1 (29) + STbus (16)
        assert r.converged and r.value == 58

    def test_lf_traffic_fills_cycles(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        m3 = sys_.application.message("m3")
        r = dyn_message_busy_window(m3, cfg, sys_, {}, PERIODS, CAP)
        # pLatestTx(N1)=5, lam=4, theta=3; instances: m1 (a=8), m2 (a=4)
        # -> fills = min(2, 12//3) = 2, leftover 6, consumed min(4, 2+6)=4
        # w = 11 + 2*29 + 16 + 4 = 89
        assert r.converged and r.value == 89

    def test_wcrt_adds_jitter_and_ct(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        m3 = sys_.application.message("m3")
        ct = cfg.message_ct(m3)

        def wcrt(own_jitter):
            """R_m = J_m + w_m + C_m (Eq. (2))."""
            jitters = {"m3": own_jitter}
            window = dyn_message_busy_window(
                m3, cfg, sys_, jitters, PERIODS, CAP, own_jitter
            )
            assert window.converged
            return own_jitter + window.value + ct

        assert wcrt(0) == 89 + 3
        assert wcrt(10) == 89 + 3 + 10

    def test_longer_dyn_segment_reduces_lf_fills(self):
        sys_ = fig4_system()
        m3 = sys_.application.message("m3")
        short = make_config({"m1": 1, "m2": 2, "m3": 3}, n_minislots=13)
        long_ = make_config({"m1": 1, "m2": 2, "m3": 3}, n_minislots=30)
        r_short = dyn_message_busy_window(m3, short, sys_, {}, PERIODS, CAP)
        r_long = dyn_message_busy_window(m3, long_, sys_, {}, PERIODS, CAP)
        # Larger segment -> theta grows -> fewer filled cycles.
        assert r_long.converged
        # short: 2 filled cycles of 29; long: 0 filled cycles.
        assert r_long.value < r_short.value

    def test_infeasible_frame_id_hits_cap(self):
        sys_ = fig4_system()
        # pLatestTx(N1) = 13-9+1 = 5; give m3 fid 6 (> pLatestTx).
        cfg = make_config({"m1": 1, "m2": 2, "m3": 6})
        m3 = sys_.application.message("m3")
        r = dyn_message_busy_window(m3, cfg, sys_, {}, PERIODS, CAP)
        assert r.value == CAP and not r.converged

    def test_dense_periods_diverge_to_cap(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        m3 = sys_.application.message("m3")
        # hp/lf activations every 30 MT: the bus cannot keep up.
        r = dyn_message_busy_window(m3, cfg, sys_, {}, lambda n: 30, CAP)
        assert not r.converged and r.value == CAP

    def test_jitter_of_interferer_adds_activations(self):
        sys_ = fig4_system()
        cfg = make_config({"m1": 1, "m2": 2, "m3": 3})
        m3 = sys_.application.message("m3")
        no_jit = dyn_message_busy_window(m3, cfg, sys_, {}, PERIODS, CAP)
        with_jit = dyn_message_busy_window(
            m3, cfg, sys_, {"m1": 150}, PERIODS, CAP
        )
        assert with_jit.value >= no_jit.value


class TestBoundFillThetaBoundary:
    """The "bound" fill charges ``lf_total // theta`` filled cycles: a
    cycle is filled only once the lf frames' adjusted minislots *reach*
    theta.  One adjusted minislot short of it fills nothing."""

    @staticmethod
    def _window(lf_rows):
        # theta 2, no hp rows and no lower slots; sigma 10, ct 3,
        # gdCycle 100, STbus 20, 1-MT minislots, lam 4.
        value, converged, _ = resolved_busy_window(
            [], lf_rows, 0, 4, 2, 10, 3, 100, 20, 1, CAP, "bound"
        )
        return value, converged

    def test_adjusted_size_below_theta_fills_no_cycle(self):
        # One lf instance of adjusted size 1 < theta: 1 // 2 = 0 filled
        # cycles, and its minislot is consumed in the final cycle:
        # w = sigma + STbus + 1 = 31.
        assert self._window([(1000, 0, 1)]) == (31, True)

    def test_adjusted_sizes_reaching_theta_fill_one_cycle(self):
        # Two instances of adjusted size 1 reach theta: one filled cycle,
        # nothing left over: w = sigma + gdCycle + STbus = 130.
        assert self._window([(1000, 0, 1), (1000, 0, 1)]) == (130, True)


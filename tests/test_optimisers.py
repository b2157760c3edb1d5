"""Integration tests for BBC, OBC/CF, OBC/EE and SA on small systems."""

import pytest

from repro.core import (
    BusOptimisationOptions,
    SAOptions,
    basic_configuration,
    optimise_bbc,
    optimise_obc,
    optimise_sa,
)
from repro.core.obc import _static_variants
from repro.errors import OptimisationError
from repro.synth import paper_suite

from tests.util import (
    dyn_msg,
    fig3_system,
    fig4_system,
    fps_task,
    scs_task,
    single_graph_system,
    st_msg,
)


class TestBasicConfiguration:
    def test_one_slot_per_st_sender(self):
        cfg = basic_configuration(fig3_system(), n_minislots=0)
        assert cfg.static_slots == ("N1", "N2")
        assert cfg.gd_static_slot == 4  # largest ST frame

    def test_unique_frame_ids(self):
        cfg = basic_configuration(fig4_system(), n_minislots=20)
        assert sorted(cfg.frame_ids.values()) == [1, 2, 3]

    def test_pure_dynamic_when_no_st(self):
        cfg = basic_configuration(fig4_system(), n_minislots=20)
        assert cfg.static_slots == () and cfg.st_bus == 0


class TestBBC:
    def test_schedulable_on_easy_static_system(self):
        result = optimise_bbc(fig3_system())
        assert result.schedulable
        assert result.algorithm == "BBC"
        assert result.evaluations == 1  # no DYN messages -> single analysis

    def test_finds_config_on_dyn_system(self):
        result = optimise_bbc(fig4_system())
        assert result.best is not None
        assert result.evaluations > 1
        assert all(p.exact for p in result.trace)

    def test_respects_max_dyn_points(self):
        options = BusOptimisationOptions(max_dyn_points=7)
        result = optimise_bbc(fig4_system(), options)
        assert result.evaluations <= 7


class TestOBC:
    def test_rejects_unknown_method(self):
        with pytest.raises(OptimisationError, match="unknown"):
            optimise_obc(fig3_system(), method="magic")

    def test_cf_schedulable_on_fig4(self):
        result = optimise_obc(fig4_system(), method="curvefit")
        assert result.schedulable
        assert result.algorithm == "OBC/CF"

    def test_ee_schedulable_on_fig4(self):
        result = optimise_obc(fig4_system(), method="exhaustive")
        assert result.schedulable
        assert result.algorithm == "OBC/EE"

    def test_cf_uses_far_fewer_analyses_than_ee(self):
        cf = optimise_obc(fig4_system(), method="curvefit")
        ee = optimise_obc(fig4_system(), method="exhaustive")
        assert cf.evaluations < ee.evaluations / 10

    def test_explores_static_alternatives_when_needed(self):
        # A system whose BBC static structure is too tight: two ST senders
        # with many messages each and a short deadline.
        tasks = [
            scs_task("a", wcet=1, node="N1"),
            scs_task("b", wcet=1, node="N2"),
            scs_task("c", wcet=1, node="N2"),
            scs_task("d", wcet=1, node="N1"),
        ]
        msgs = [
            st_msg("m1", 4, "a", "b"),
            st_msg("m2", 4, "b", "d"),
            st_msg("m3", 4, "c", "d"),
        ]
        sys_ = single_graph_system(tasks, msgs, period=60, deadline=26)
        bbc = optimise_bbc(sys_)
        obc = optimise_obc(sys_, method="curvefit")
        assert obc.cost <= bbc.cost

    def test_variant_enumeration_matches_serial_loop(self):
        options = BusOptimisationOptions(
            ee_max_dyn_points=32,
            cf_candidates=64,
            max_extra_static_slots=1,
            max_slot_size_steps=2,
        )
        variants = _static_variants(paper_suite(3, count=1, seed=23)[0], options)
        assert variants, "workload must produce static variants"
        # Serial order: slot count outer, slot size inner, both ascending.
        keys = [
            (v[0].n_static_slots, v[0].gd_static_slot) for v in variants
        ]
        assert keys == sorted(keys)

    def test_trace_contains_estimates_for_cf(self):
        result = optimise_obc(fig4_system(), method="curvefit")
        kinds = {p.exact for p in result.trace}
        # CF runs exact seed analyses; interpolation estimates appear when
        # the seed grid alone is not schedulable.
        assert True in kinds


class TestSA:
    def test_sa_schedulable_on_fig4(self):
        result = optimise_sa(
            fig4_system(), sa_options=SAOptions(iterations=300, seed=7)
        )
        assert result.schedulable
        assert result.algorithm == "SA"

    def test_sa_deterministic_for_fixed_seed(self):
        opts = SAOptions(iterations=150, seed=11)
        a = optimise_sa(fig4_system(), sa_options=opts)
        b = optimise_sa(fig4_system(), sa_options=opts)
        assert a.cost == b.cost
        assert a.evaluations == b.evaluations

    def test_sa_improves_on_bbc(self):
        sys_ = fig4_system()
        bbc = optimise_bbc(sys_)
        sa = optimise_sa(sys_, sa_options=SAOptions(iterations=300, seed=3))
        assert sa.cost <= bbc.cost

    def test_sa_respects_time_budget(self):
        result = optimise_sa(
            fig4_system(),
            sa_options=SAOptions(iterations=10_000, max_seconds=0.2, seed=5),
        )
        assert result.elapsed_seconds < 2.0


class TestOptimisationResult:
    def test_describe_mentions_algorithm_and_cost(self):
        result = optimise_bbc(fig3_system())
        text = result.describe()
        assert "BBC" in text and "cost=" in text

    def test_unsolvable_system_returns_no_config(self):
        # Impossibly tight deadline: even the best bus misses it.
        tasks = [
            scs_task("a", wcet=1, node="N1"),
            scs_task("b", wcet=1, node="N2"),
        ]
        msgs = [st_msg("m", 600, "a", "b")]
        sys_ = single_graph_system(tasks, msgs, period=16000, deadline=2)
        result = optimise_bbc(sys_)
        assert not result.schedulable
        # a best (non-schedulable) configuration is still reported
        assert result.best is not None
        assert result.cost > 0

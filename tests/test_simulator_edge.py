"""Failure-injection and edge-case tests for the simulator."""

import pytest

from repro.core.config import FlexRayConfig
from repro.errors import SimulationError
from repro.flexray.simulator import SimulationOptions, simulate
from repro.model import Application, System, TaskGraph

from tests.util import (
    dyn_msg,
    fps_task,
    schedule_view,
    scs_task,
    single_graph_system,
    st_msg,
)


class TestStMessageConsistency:
    def test_frame_before_sender_finish_rejected(self):
        """Failure injection: a hand-built table that transmits an ST
        message before its sender completed must be caught at run time."""
        g = TaskGraph(
            name="g",
            period=40,
            deadline=40,
            tasks=(
                scs_task("a", wcet=10, node="N1"),
                scs_task("b", wcet=1, node="N2"),
            ),
            messages=(st_msg("m", 2, "a", "b"),),
        )
        app = Application("app", (g,))
        system = System(("N1", "N2"), app)
        cfg = FlexRayConfig(
            static_slots=("N1", "N2"), gd_static_slot=4, n_minislots=0
        )
        table = schedule_view(
            cfg,
            app,
            [
                ("a#0", app.task("a"), 0),  # finishes at 10
                ("m#0", app.message("m"), 0, 1),  # slot at 0!
            ],
        )
        with pytest.raises(SimulationError, match="not ready"):
            simulate(system, cfg, table=table)

    def test_scs_receiver_before_arrival_rejected(self):
        g = TaskGraph(
            name="g",
            period=40,
            deadline=40,
            tasks=(
                scs_task("a", wcet=1, node="N1"),
                scs_task("b", wcet=1, node="N2"),
            ),
            messages=(st_msg("m", 2, "a", "b"),),
        )
        app = Application("app", (g,))
        system = System(("N1", "N2"), app)
        cfg = FlexRayConfig(
            static_slots=("N1", "N2"), gd_static_slot=4, n_minislots=0
        )
        table = schedule_view(
            cfg,
            app,
            [
                ("a#0", app.task("a"), 0),
                ("m#0", app.message("m"), 1, 1),  # arrives ~10
                ("b#0", app.task("b"), 2),  # starts before the data
            ],
        )
        with pytest.raises(SimulationError, match="inputs arrive"):
            simulate(system, cfg, table=table)


class TestDrainBehaviour:
    def test_slow_dyn_traffic_drains_past_hyperperiod(self):
        # One DYN message per 100-MT period; the bus cycle is large so
        # the last instances complete after the hyper-period.
        tasks = [
            scs_task("s", wcet=1, node="N1"),
            fps_task("r", wcet=1, node="N2", priority=1),
        ]
        msgs = [dyn_msg("m", 30, "s", "r")]
        sys_ = single_graph_system(tasks, msgs, period=100, deadline=100)
        cfg = FlexRayConfig(
            static_slots=("N1",),
            gd_static_slot=60,
            n_minislots=35,
            frame_ids={"m": 1},
        )
        result = simulate(sys_, cfg)
        assert result.all_finished

    def test_drain_cap_reports_unfinished(self):
        # Sender finishes after the cycle's DYN slot passed, so the
        # frame needs the next bus cycle -- beyond the zero-drain cap.
        tasks = [
            scs_task("s", wcet=70, node="N1"),
            fps_task("r", wcet=1, node="N2", priority=1),
        ]
        msgs = [dyn_msg("m", 30, "s", "r")]
        sys_ = single_graph_system(tasks, msgs, period=100, deadline=100)
        cfg = FlexRayConfig(
            static_slots=("N1",),
            gd_static_slot=60,
            n_minislots=35,
            frame_ids={"m": 1},
        )
        result = simulate(sys_, cfg, options=SimulationOptions(drain_factor=0))
        # With no drain budget the receiver task cannot complete.
        assert not result.all_finished
        assert any(u.startswith("r#") or u.startswith("m#")
                   for u in result.unfinished)


class TestTraceContent:
    def test_release_events_per_graph_instance(self):
        sys_ = single_graph_system(
            [scs_task("a", node="N1"), scs_task("b", node="N2")],
            nodes=("N1", "N2"),
            period=50,
            deadline=50,
        )
        cfg = FlexRayConfig(
            static_slots=("N1", "N2"), gd_static_slot=4, n_minislots=0
        )
        result = simulate(sys_, cfg)
        from repro.flexray.events import EventKind

        releases = [e for e in result.trace if e.kind is EventKind.RELEASE]
        assert len(releases) == 1  # hyper-period == period -> one instance

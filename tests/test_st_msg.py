"""Unit tests for static response-time extraction."""

from repro.analysis.st_msg import static_response_times
from repro.core.config import FlexRayConfig
from repro.model import Application, System, TaskGraph

from tests.util import schedule_view, scs_task, st_msg


def build_app():
    g = TaskGraph(
        name="g",
        period=20,
        deadline=20,
        tasks=(scs_task("a", wcet=2, node="N1"), scs_task("b", wcet=1, node="N2")),
        messages=(st_msg("m", 2, "a", "b"),),
    )
    app = Application("app", (g,))
    System(("N1", "N2"), app)
    cfg = FlexRayConfig(static_slots=("N1", "N2"), gd_static_slot=4, n_minislots=0)
    return app, cfg


class TestStaticResponseTimes:
    def test_single_instance(self):
        app, cfg = build_app()
        table = schedule_view(cfg, app, [("a#0", app.task("a"), 3)])
        wcrt = static_response_times(app, table)
        assert wcrt["a"] == 5

    def test_max_over_instances_relative_to_period(self):
        app, cfg = build_app()
        table = schedule_view(
            cfg,
            app,
            [
                ("a#0", app.task("a"), 3),  # R = 5
                ("a#1", app.task("a"), 29),  # base 20 -> R = 11
            ],
        )
        wcrt = static_response_times(app, table)
        assert wcrt["a"] == 11

    def test_message_uses_arrival_time(self):
        app, cfg = build_app()
        table = schedule_view(cfg, app, [("m#0", app.message("m"), 1, 1)])
        entry = table.messages["m#0"]
        wcrt = static_response_times(app, table)
        assert wcrt["m"] == entry.finish  # instance 0: base 0

    def test_empty_table(self):
        app, cfg = build_app()
        assert static_response_times(app, schedule_view(cfg, app, [])) == {}

"""Unit tests for Application and System."""

import pytest

from repro.errors import ModelError, ValidationError
from repro.model import Application, System, TaskGraph

from tests.util import dyn_msg, fps_task, scs_task, st_msg


def two_graph_app():
    g1 = TaskGraph(
        name="g1",
        period=20,
        deadline=18,
        tasks=(scs_task("a1", node="N1"), scs_task("b1", node="N2")),
        messages=(st_msg("m1", 2, "a1", "b1"),),
    )
    g2 = TaskGraph(
        name="g2",
        period=30,
        deadline=30,
        tasks=(
            fps_task("a2", node="N1", priority=1),
            fps_task("b2", node="N2", priority=2),
        ),
        messages=(dyn_msg("m2", 3, "a2", "b2", deadline=25),),
    )
    return Application("app", (g1, g2))


class TestApplication:
    def test_hyperperiod(self):
        assert two_graph_app().hyperperiod == 60

    def test_graph_lookup(self):
        app = two_graph_app()
        assert app.graph("g1").period == 20
        with pytest.raises(ModelError):
            app.graph("zz")

    def test_task_and_message_lookup_across_graphs(self):
        app = two_graph_app()
        assert app.task("a2").is_fps
        assert app.message("m1").is_static
        with pytest.raises(ModelError):
            app.task("m1")  # message, not task
        with pytest.raises(ModelError):
            app.message("a1")

    def test_graph_of(self):
        app = two_graph_app()
        assert app.graph_of("a1").name == "g1"
        assert app.graph_of("m2").name == "g2"
        with pytest.raises(ModelError):
            app.graph_of("zz")

    def test_period_and_deadline_of(self):
        app = two_graph_app()
        assert app.period_of("m1") == 20
        assert app.deadline_of("a1") == 18  # graph deadline
        assert app.deadline_of("m2") == 25  # individual deadline wins

    def test_message_kind_iterators(self):
        app = two_graph_app()
        assert [m.name for m in app.st_messages()] == ["m1"]
        assert [m.name for m in app.dyn_messages()] == ["m2"]

    def test_rejects_duplicate_activity_name_across_graphs(self):
        g1 = TaskGraph(
            name="g1", period=10, deadline=10, tasks=(scs_task("x", node="N1"),)
        )
        g2 = TaskGraph(
            name="g2", period=10, deadline=10, tasks=(scs_task("x", node="N1"),)
        )
        with pytest.raises(ValidationError, match="globally unique"):
            Application("app", (g1, g2))

    def test_rejects_duplicate_graph_name(self):
        g = TaskGraph(
            name="g", period=10, deadline=10, tasks=(scs_task("x", node="N1"),)
        )
        g2 = TaskGraph(
            name="g", period=10, deadline=10, tasks=(scs_task("y", node="N1"),)
        )
        with pytest.raises(ValidationError, match="duplicate graph"):
            Application("app", (g, g2))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Application("app", ())


class TestSystem:
    def test_tasks_on(self):
        sys_ = System(("N1", "N2"), two_graph_app())
        assert {t.name for t in sys_.tasks_on("N1")} == {"a1", "a2"}
        with pytest.raises(ModelError):
            sys_.tasks_on("N9")

    def test_sender_nodes(self):
        sys_ = System(("N1", "N2"), two_graph_app())
        assert sys_.st_sender_nodes() == ("N1",)
        assert sys_.dyn_sender_nodes() == ("N1",)
        m1 = sys_.application.message("m1")
        assert sys_.sender_node(m1) == "N1"

    @pytest.mark.parametrize("n_nodes,index", [(3, 1), (4, 0), (5, 0)])
    def test_sender_node_map_matches_graph_walk(self, n_nodes, index):
        """The map built at construction agrees with walking each
        message's graph to its sender task, for every message."""
        from repro.synth.suite import paper_system

        system = paper_system(n_nodes, index, seed=23)
        app = system.application
        messages = list(app.messages())
        assert messages
        for m in messages:
            walked = app.graph_of(m.name).task(m.sender).node
            assert system.sender_node(m) == walked
        table = system.bus_table(8, 0, 1)
        assert [m for m, _ in table.st + table.dyn] == sorted(
            messages, key=lambda m: m.is_dynamic
        )
        for m, node in table.st + table.dyn:
            assert node == app.graph_of(m.name).task(m.sender).node

    def test_sender_node_of_unknown_message_raises(self):
        sys_ = System(("N1", "N2"), two_graph_app())
        stranger = st_msg("m9", 2, "a1", "b1")
        with pytest.raises(ModelError, match="has no activity 'm9'"):
            sys_.sender_node(stranger)

    def test_bus_table_pairs_by_sender(self):
        sys_ = System(("N1", "N2"), two_graph_app())
        table = sys_.bus_table(8, 0, 1)
        pairs = table.st + table.dyn
        assert {m.name for m, node in pairs if node == "N1"} == {"m1", "m2"}
        assert {m.name for m, node in pairs if node == "N2"} == set()

    def test_node_utilisation(self):
        sys_ = System(("N1", "N2"), two_graph_app())
        # a1: 1/20, a2: 1/30
        assert sys_.node_utilisation("N1") == pytest.approx(1 / 20 + 1 / 30)

    def test_rejects_unknown_mapping(self):
        with pytest.raises(ValidationError, match="unknown node"):
            System(("N1",), two_graph_app())

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValidationError, match="unique"):
            System(("N1", "N1", "N2"), two_graph_app())

    def test_describe_mentions_counts(self):
        text = System(("N1", "N2"), two_graph_app()).describe()
        assert "2 nodes" in text and "4 tasks" in text and "2 messages" in text

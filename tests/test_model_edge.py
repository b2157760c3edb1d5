"""Additional model edge-case coverage."""

import pytest

from repro.errors import ModelError, ValidationError
from repro.model import (
    Application,
    Message,
    MessageKind,
    System,
    Task,
    TaskGraph,
)

from tests.util import fps_task, scs_task, st_msg


class TestGraphEdgeCases:
    def test_single_task_graph(self):
        g = TaskGraph(name="g", period=10, deadline=10, tasks=(scs_task("a"),))
        assert g.sources() == ("a",)
        assert g.successors("a") == ()
        assert g.longest_path_from("a") == g.task("a").wcet

    def test_parallel_independent_tasks(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a"), scs_task("b"), scs_task("c")),
        )
        assert set(g.sources()) == {"a", "b", "c"}
        assert all(g.successors(n) == () for n in ("a", "b", "c"))

    def test_multi_hop_chain_costs(self):
        g = TaskGraph(
            name="g",
            period=100,
            deadline=100,
            tasks=(
                scs_task("a", wcet=1, node="N1"),
                scs_task("b", wcet=2, node="N2"),
                scs_task("c", wcet=3, node="N1"),
            ),
            messages=(
                st_msg("m1", 10, "a", "b"),
                st_msg("m2", 20, "b", "c"),
            ),
        )
        assert g.longest_path_to("c") == 1 + 10 + 2 + 20 + 3

    def test_activity_cost_for_message_uses_size_without_map(self):
        g = TaskGraph(
            name="g",
            period=100,
            deadline=100,
            tasks=(scs_task("a", node="N1"), scs_task("b", node="N2")),
            messages=(st_msg("m", 7, "a", "b"),),
        )
        assert g.activity_cost("m") == 7
        assert g.activity_cost("m", {"m": 70}) == 70

    def test_duplicate_precedence_edges_collapse_in_scheduler(self):
        # Duplicate precedences are legal in the model; the DAG stays valid.
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a"), scs_task("b")),
            precedences=(("a", "b"), ("a", "b")),
        )
        assert list(g.predecessors("b")).count("a") == 2


class TestApplicationEdgeCases:
    def test_hyperperiod_of_coprime_periods(self):
        g1 = TaskGraph(name="g1", period=7, deadline=7, tasks=(scs_task("a"),))
        g2 = TaskGraph(name="g2", period=11, deadline=11, tasks=(scs_task("b"),))
        assert Application("app", (g1, g2)).hyperperiod == 77

    def test_sender_node_helper(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a", node="N1"), scs_task("b", node="N2")),
            messages=(st_msg("m", 1, "a", "b"),),
        )
        app = Application("app", (g,))
        assert app.sender_node("m") == "N1"
        with pytest.raises(ModelError):
            app.sender_node("zz")


class TestSystemEdgeCases:
    def test_single_node_system_rejects_any_message(self):
        # A message requires sender/receiver on different nodes, so a
        # one-node system can only host message-free graphs.
        g = TaskGraph(name="g", period=10, deadline=10, tasks=(scs_task("a"),))
        system = System(("N1",), Application("app", (g,)))
        assert system.st_sender_nodes() == ()
        assert system.dyn_sender_nodes() == ()

    def test_multicast_message_counts_once(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(
                scs_task("a", node="N1"),
                scs_task("b", node="N2"),
                scs_task("c", node="N3"),
            ),
            messages=(
                Message(
                    "m",
                    size=1,
                    sender="a",
                    receivers=("b", "c"),
                    kind=MessageKind.ST,
                ),
            ),
        )
        system = System(("N1", "N2", "N3"), Application("app", (g,)))
        assert [
            m.name for m, node in system.bus_table(8, 0, 1).st if node == "N1"
        ] == ["m"]

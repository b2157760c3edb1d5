"""Unit tests for TaskGraph: structure, ordering, path metrics."""

import pytest

from repro.errors import ModelError, ValidationError
from repro.model import Message, MessageKind, Task, TaskGraph

from tests.util import dyn_msg, scs_task, st_msg


def chain_graph():
    """t1 (N1) --m--> t2 (N2) --prec--> t3 (N2)."""
    return TaskGraph(
        name="g",
        period=50,
        deadline=40,
        tasks=(
            scs_task("t1", wcet=2, node="N1"),
            scs_task("t2", wcet=3, node="N2"),
            scs_task("t3", wcet=4, node="N2"),
        ),
        messages=(st_msg("m", 5, "t1", "t2"),),
        precedences=(("t2", "t3"),),
    )


class TestStructure:
    def test_topological_order_respects_edges(self):
        g = chain_graph()
        order = g.topological_order()
        assert order.index("t1") < order.index("m") < order.index("t2")
        assert order.index("t2") < order.index("t3")

    def test_sources_and_sinks(self):
        g = chain_graph()
        assert g.sources() == ("t1",)
        assert [n for n in g.topological_order() if not g.successors(n)] == ["t3"]

    def test_predecessors_successors(self):
        g = chain_graph()
        assert g.predecessors("t2") == ("m",)
        assert g.successors("t1") == ("m",)
        assert g.successors("t3") == ()

    def test_unknown_activity_raises(self):
        g = chain_graph()
        with pytest.raises(ModelError):
            g.successors("nope")
        with pytest.raises(ModelError):
            g.task("nope")
        with pytest.raises(ModelError):
            g.message("nope")

    def test_task_and_message_lookup(self):
        g = chain_graph()
        assert g.task("t1").wcet == 2
        assert g.message("m").size == 5


class TestValidation:
    def test_rejects_cycle(self):
        with pytest.raises(ValidationError, match="cycle"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a"), scs_task("b")),
                precedences=(("a", "b"), ("b", "a")),
            )

    def test_rejects_duplicate_task_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a"), scs_task("a")),
            )

    def test_rejects_message_shadowing_task_name(self):
        with pytest.raises(ValidationError, match="duplicate"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a", node="N1"), scs_task("b", node="N2")),
                messages=(st_msg("a", 1, "a", "b"),),
            )

    def test_rejects_unknown_sender(self):
        with pytest.raises(ValidationError, match="sender"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a", node="N1"),),
                messages=(st_msg("m", 1, "zz", "a"),),
            )

    def test_rejects_unknown_receiver(self):
        with pytest.raises(ValidationError, match="receiver"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a", node="N1"),),
                messages=(st_msg("m", 1, "a", "zz"),),
            )

    def test_rejects_same_node_message(self):
        with pytest.raises(ValidationError, match="same node"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a", node="N1"), scs_task("b", node="N1")),
                messages=(st_msg("m", 1, "a", "b"),),
            )

    def test_rejects_self_loop_precedence(self):
        with pytest.raises(ValidationError, match="self-loop"):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a"),),
                precedences=(("a", "a"),),
            )

    def test_rejects_precedence_to_message(self):
        with pytest.raises(ValidationError):
            TaskGraph(
                name="g",
                period=10,
                deadline=10,
                tasks=(scs_task("a", node="N1"), scs_task("b", node="N2")),
                messages=(st_msg("m", 1, "a", "b"),),
                precedences=(("m", "b"),),
            )

    def test_rejects_empty_graph(self):
        with pytest.raises(ValidationError):
            TaskGraph(name="g", period=10, deadline=10, tasks=())

    def test_rejects_zero_period(self):
        with pytest.raises(ValidationError):
            TaskGraph(name="g", period=0, deadline=10, tasks=(scs_task("a"),))


class TestPathMetrics:
    def test_longest_path_to_with_byte_costs(self):
        g = chain_graph()
        # t1(2) -> m(5) -> t2(3) -> t3(4)
        assert g.longest_path_to("t1") == 2
        assert g.longest_path_to("m") == 7
        assert g.longest_path_to("t2") == 10
        assert g.longest_path_to("t3") == 14

    def test_longest_path_from(self):
        g = chain_graph()
        assert g.longest_path_from("t1") == 14
        assert g.longest_path_from("m") == 12
        assert g.longest_path_from("t3") == 4

    def test_message_cost_override(self):
        g = chain_graph()
        assert g.longest_path_from("t1", {"m": 50}) == 59

    def test_diamond_takes_max_branch(self):
        g = TaskGraph(
            name="d",
            period=100,
            deadline=100,
            tasks=(
                scs_task("src", wcet=1),
                scs_task("fast", wcet=2),
                scs_task("slow", wcet=30),
                scs_task("sink", wcet=1),
            ),
            precedences=(
                ("src", "fast"),
                ("src", "slow"),
                ("fast", "sink"),
                ("slow", "sink"),
            ),
        )
        assert g.longest_path_to("sink") == 32
        assert g.longest_path_from("src") == 32

    def test_multi_receiver_message_edges(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(
                scs_task("a", node="N1"),
                scs_task("b", node="N2"),
                scs_task("c", node="N2"),
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
        assert set(g.successors("m")) == {"b", "c"}
        assert g.predecessors("b") == ("m",)

"""Tests for the task-mapping exploration (Section 6.2 motivation)."""

import pytest

from repro.core.mapping import (
    MappingOptions,
    optimise_mapping,
    remap_task,
)
from repro.errors import ConfigurationError, OptimisationError
from repro.model import validate_system

from tests.util import fig3_system, fig4_system


class TestRemapTask:
    def test_move_changes_node(self):
        sys_ = fig3_system()
        out = remap_task(sys_, "r1", "N1")
        assert out.application.task("r1").node == "N1"

    def test_message_collapses_when_local(self):
        sys_ = fig3_system()
        # r1 receives m1 from t1 (N1); moving r1 to N1 makes m1 local.
        out = remap_task(sys_, "r1", "N1")
        names = {m.name for m in out.application.messages()}
        assert "m1" not in names
        g = out.application.graph_of("r1")
        assert ("t1", "r1") in g.precedences

    def test_precedence_becomes_message_when_crossing(self):
        sys_ = fig3_system()
        out = remap_task(sys_, "r1", "N1")
        back = remap_task(out, "r1", "N2")
        g = back.application.graph_of("r1")
        crossing = [
            m for m in g.messages if m.sender == "t1" and "r1" in m.receivers
        ]
        assert len(crossing) == 1
        # the original payload is not recoverable; the default applies
        assert crossing[0].size in (4, 8)

    def test_structure_stays_valid(self):
        sys_ = fig4_system()
        out = remap_task(sys_, "d1", "N1")
        errors = [f for f in validate_system(out) if f.startswith("error")]
        assert errors == []

    def test_unknown_node_rejected(self):
        with pytest.raises(OptimisationError):
            remap_task(fig3_system(), "r1", "N9")

    def test_total_task_count_preserved(self):
        sys_ = fig4_system()
        out = remap_task(sys_, "d3", "N1")
        assert sum(1 for _ in out.application.tasks()) == sum(
            1 for _ in sys_.application.tasks()
        )


class TestOptimiseMapping:
    def test_never_worse_than_initial(self):
        sys_ = fig4_system()
        from repro.core import optimise_bbc

        initial = optimise_bbc(sys_)
        result = optimise_mapping(
            sys_, mapping_options=MappingOptions(iterations=8, seed=5)
        )
        assert result.cost <= initial.cost

    def test_deterministic(self):
        opts = MappingOptions(iterations=6, seed=9)
        a = optimise_mapping(fig4_system(), mapping_options=opts)
        b = optimise_mapping(fig4_system(), mapping_options=opts)
        assert a.cost == b.cost
        assert a.moves_accepted == b.moves_accepted

    def test_counts_consistent(self):
        result = optimise_mapping(
            fig4_system(), mapping_options=MappingOptions(iterations=10, seed=2)
        )
        assert 0 <= result.moves_accepted <= result.moves_tried <= 10

    def test_rejects_unknown_inner(self):
        with pytest.raises(OptimisationError):
            optimise_mapping(
                fig3_system(), mapping_options=MappingOptions(inner="magic")
            )

    def test_time_budget(self):
        result = optimise_mapping(
            fig4_system(),
            mapping_options=MappingOptions(
                iterations=10_000, max_seconds=0.5, seed=1
            ),
        )
        assert result.elapsed_seconds < 5.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_seconds", "1"),
        ("max_seconds", -1.0),
        ("max_seconds", float("nan")),
        ("max_seconds", True),
        ("iterations", -1),
        ("iterations", 2.5),
        ("iterations", True),
        ("iterations", None),
        ("new_message_size", 0),
        ("new_message_size", "8"),
        ("new_message_size", False),
    ],
)
def test_bad_mapping_options_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        MappingOptions(**{field: value})


@pytest.mark.parametrize(
    "changes",
    [{"max_seconds": None}, {"max_seconds": 0}, {"max_seconds": 1.5},
     {"iterations": 0}, {"new_message_size": 1}],
)
def test_good_mapping_options_accepted(changes):
    MappingOptions(**changes)

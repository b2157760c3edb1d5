"""Tests for the synthetic workload generator and benchmark suites."""

import pytest

from repro.errors import ValidationError
from repro.model import validate_system
from repro.synth import GeneratorConfig, generate_system, paper_suite


class TestGeneratorConfig:
    def test_defaults_follow_paper_recipe(self):
        cfg = GeneratorConfig()
        assert cfg.tasks_per_node == 10
        assert cfg.tasks_per_graph == 5
        assert cfg.node_utilisation == (0.30, 0.60)
        assert cfg.bus_utilisation == (0.10, 0.70)

    def test_rejects_single_node(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(n_nodes=1)

    def test_rejects_indivisible_grouping(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(n_nodes=3, tasks_per_node=10, tasks_per_graph=7)

    def test_rejects_bad_tt_share(self):
        with pytest.raises(ValidationError):
            GeneratorConfig(tt_graph_share=1.5)


class TestGenerateSystem:
    def test_deterministic_for_seed(self):
        a = generate_system(GeneratorConfig(seed=5))
        b = generate_system(GeneratorConfig(seed=5))
        assert a.describe() == b.describe()
        assert [t.wcet for t in a.application.tasks()] == [
            t.wcet for t in b.application.tasks()
        ]

    def test_different_seeds_differ(self):
        a = generate_system(GeneratorConfig(seed=5))
        b = generate_system(GeneratorConfig(seed=6))
        assert [t.wcet for t in a.application.tasks()] != [
            t.wcet for t in b.application.tasks()
        ]

    def test_task_and_graph_counts(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=4, seed=1))
        app = sys_.application
        assert sum(1 for _ in app.tasks()) == 40
        assert len(app.graphs) == 8
        assert all(len(g.tasks) == 5 for g in app.graphs)

    def test_balanced_mapping(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=3, seed=9))
        for node in sys_.nodes:
            assert len(sys_.tasks_on(node)) == 10

    def test_node_utilisation_in_range(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=3, seed=11))
        for node in sys_.nodes:
            util = sys_.node_utilisation(node)
            assert 0.25 <= util <= 0.65  # rounding tolerance around 0.30-0.60

    def test_half_graphs_time_triggered(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=4, seed=2))
        tt = sum(
            1 for g in sys_.application.graphs if all(t.is_scs for t in g.tasks)
        )
        assert tt == 4  # of 8

    def test_graphs_homogeneous_policy(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=3, seed=3))
        for g in sys_.application.graphs:
            assert len({t.policy for t in g.tasks}) == 1

    def test_message_kind_matches_graph_policy(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=3, seed=4))
        for g in sys_.application.graphs:
            tt = all(t.is_scs for t in g.tasks)
            for m in g.messages:
                assert m.is_static == tt

    def test_message_size_cap(self):
        sys_ = generate_system(
            GeneratorConfig(n_nodes=2, seed=7, max_message_size=100)
        )
        assert all(m.size <= 100 for m in sys_.application.messages())

    def test_unique_fps_priorities_per_node(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=3, seed=8))
        findings = validate_system(sys_)
        assert not any("share priority" in f for f in findings)

    def test_structurally_valid(self):
        sys_ = generate_system(GeneratorConfig(n_nodes=5, seed=12))
        errors = [f for f in validate_system(sys_) if f.startswith("error")]
        assert errors == []


class TestSuites:
    def test_paper_suite_size_and_nodes(self):
        suite = paper_suite(3, count=4, seed=1)
        assert len(suite) == 4
        assert all(len(s.nodes) == 3 for s in suite)

    def test_suite_deterministic(self):
        a = paper_suite(2, count=2, seed=9)
        b = paper_suite(2, count=2, seed=9)
        assert [s.describe() for s in a] == [s.describe() for s in b]

    def test_suite_members_distinct(self):
        suite = paper_suite(2, count=3, seed=9)
        descs = {
            tuple(t.wcet for t in s.application.tasks()) for s in suite
        }
        assert len(descs) == 3

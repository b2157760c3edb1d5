"""Sharded benchmark partitioning (``repro.synth.sharding``)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import ValidationError
from repro.synth import paper_suite, paper_system, shard_plan


class TestShardPlan:
    def test_partition_is_exact_and_balanced(self):
        plan = shard_plan(node_counts=range(2, 8), count=25, num_shards=8)
        assert len(plan) == 8
        all_entries = [e for spec in plan for e in spec.entries]
        assert len(all_entries) == 6 * 25
        assert len(set(all_entries)) == 6 * 25
        sizes = [len(spec.entries) for spec in plan]
        assert max(sizes) - min(sizes) <= 1
        # Round-robin: every shard sees every node-count class.
        for spec in plan:
            assert {e.n_nodes for e in spec.entries} == set(range(2, 8))

    def test_deterministic_and_self_describing(self):
        a = shard_plan((2, 3, 4), count=5, num_shards=3, seed=99)
        b = shard_plan((4, 3, 2), count=5, num_shards=3, seed=99)
        assert a == b  # node counts are normalised
        assert (a[0].node_counts, a[0].count, a[0].seed) == ((2, 3, 4), 5, 99)
        assert all(spec.num_shards == 3 for spec in a)

    def test_more_shards_than_systems(self):
        plan = shard_plan((2,), count=2, num_shards=5)
        assert sum(len(s.entries) for s in plan) == 2
        assert sum(1 for s in plan if not s.entries) == 3

    def test_validation(self):
        with pytest.raises(ValidationError):
            shard_plan((2, 3), count=0, num_shards=2)
        with pytest.raises(ValidationError):
            shard_plan((2, 3), count=2, num_shards=0)
        with pytest.raises(ValidationError):
            shard_plan((), count=2, num_shards=2)


#: Suite parameter space for the property tests: node-count sets (with
#: duplicates and arbitrary order, both of which the plan normalises),
#: system counts and shard counts -- including num_shards > len(entries).
plan_args = st.tuples(
    st.lists(st.integers(2, 40), min_size=1, max_size=8),
    st.integers(1, 30),
    st.integers(1, 12),
    st.integers(0, 10_000),
)


class TestShardPlanProperties:
    """The contracts every worker and the aggregator rely on, over the
    whole parameter space: the shards are an *exact partition* of the
    suite (nothing lost, nothing duplicated), the partition is balanced
    to within one system, and the plan is a pure function of the suite
    identity -- invariant under reordering (or duplicating) the
    node-count input."""

    @given(plan_args)
    @settings(max_examples=150, deadline=None)
    def test_shards_partition_the_suite_exactly(self, args):
        node_counts, count, num_shards, seed = args
        plan = shard_plan(node_counts, count, num_shards, seed=seed)
        assert len(plan) == num_shards
        classes = sorted(set(node_counts))
        expected = {(n, i) for n in classes for i in range(count)}
        scattered = [
            (e.n_nodes, e.index) for spec in plan for e in spec.entries
        ]
        assert len(scattered) == len(expected)  # no duplicates...
        assert set(scattered) == expected  # ...and no losses
        # Every entry knows which sweep it belongs to.
        assert all(
            (spec.node_counts, spec.count, spec.seed)
            == (tuple(classes), count, seed)
            for spec in plan
        )

    @given(plan_args)
    @settings(max_examples=150, deadline=None)
    def test_shards_are_balanced_within_one(self, args):
        node_counts, count, num_shards, seed = args
        plan = shard_plan(node_counts, count, num_shards, seed=seed)
        sizes = [len(spec.entries) for spec in plan]
        assert max(sizes) - min(sizes) <= 1
        # Round-robin also balances *classes*, not just totals: no
        # shard holds more than ceil(count / num_shards) systems of any
        # one node-count class (a contiguous split would concentrate
        # the slowest class on the last shards).
        cap = -(-count // num_shards)
        for spec in plan:
            per_class = {}
            for entry in spec.entries:
                per_class[entry.n_nodes] = per_class.get(entry.n_nodes, 0) + 1
            assert all(v <= cap for v in per_class.values())

    @given(plan_args, st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_plan_is_invariant_under_input_reordering(self, args, rng):
        node_counts, count, num_shards, seed = args
        shuffled = list(node_counts) + rng.sample(
            node_counts, k=min(3, len(node_counts))
        )
        rng.shuffle(shuffled)
        assert shard_plan(
            shuffled, count, num_shards, seed=seed
        ) == shard_plan(node_counts, count, num_shards, seed=seed)


class TestPaperSystemRegeneration:
    def test_paper_system_matches_suite_member(self):
        suite = paper_suite(3, count=4, seed=23)
        for i, system in enumerate(suite):
            regenerated = paper_system(3, i, seed=23)
            assert regenerated.describe() == system.describe()
            assert [t.name for t in regenerated.application.tasks()] == [
                t.name for t in system.application.tasks()
            ]
            assert [
                (t.wcet, t.node, t.priority)
                for t in regenerated.application.tasks()
            ] == [
                (t.wcet, t.node, t.priority) for t in system.application.tasks()
            ]

    def test_shard_systems_cover_their_entries(self):
        plan = shard_plan((2, 3), count=2, num_shards=2, seed=23)
        for spec in plan:
            regenerated = list(spec.systems())
            assert [e for e, _ in regenerated] == list(spec.entries)
            for entry, system in regenerated:
                assert len(system.nodes) == entry.n_nodes

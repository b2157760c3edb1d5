"""Deterministic sharding of the Section 7 benchmark sweep.

The paper's Fig. 9 experiment runs four optimisers over 25 generated
systems for every node-count class -- at paper scale an embarrassingly
parallel workload of 150+ independent optimiser suites.  This module
partitions that sweep into *shards*: self-describing slices that a
worker process (``benchmarks/fig9_shard.py``) can regenerate and run in
isolation, with an aggregator (``benchmarks/fig9_aggregate.py``) later
merging the per-shard results into the paper-comparable tables.

The partition is a pure function of the suite parameters, so workers on
different hosts agree on the slicing without coordination; systems are
*regenerated* from ``(n_nodes, index, seed)`` via
:func:`repro.synth.suite.paper_system` rather than serialised, keeping
shard hand-off to a single small JSON file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.errors import ValidationError
from repro.model.system import System
from repro.synth.suite import GeneratorConfig, paper_system


@dataclass(frozen=True)
class ShardEntry:
    """One benchmark system, identified by its suite coordinates."""

    n_nodes: int
    index: int

    @property
    def system_id(self) -> str:
        """The campaign system id of this entry (``n<nodes>_i<index>``).

        Shared by the shard runner, the fabric-mode Fig. 9 coordinator
        and the aggregator, so per-system results can be matched back
        to suite coordinates however the sweep was executed.
        """
        return f"n{self.n_nodes}_i{self.index}"


@dataclass(frozen=True)
class ShardSpec:
    """A self-describing slice of the full benchmark sweep.

    ``node_counts``, ``count`` and ``seed`` identify the sweep the shard
    belongs to; the aggregator refuses to merge shards of different
    sweeps.
    """

    shard: int
    num_shards: int
    entries: Tuple[ShardEntry, ...]
    node_counts: Tuple[int, ...]
    count: int
    seed: int

    def systems(self, base: GeneratorConfig = None) -> Iterator[Tuple[ShardEntry, System]]:
        """Regenerate this shard's systems, in shard order."""
        for entry in self.entries:
            yield entry, paper_system(
                entry.n_nodes, entry.index, base, self.seed
            )


def shard_plan(
    node_counts: Sequence[int],
    count: int,
    num_shards: int,
    seed: int = 2007,
) -> List[ShardSpec]:
    """Partition the ``node_counts`` x ``count`` sweep into *num_shards*.

    Systems are interleaved round-robin over the shards in suite order,
    so every shard receives a balanced mix of node-count classes (large
    classes dominate the runtime; a contiguous split would make the last
    shards several times slower than the first).  The plan is
    deterministic: every worker computes the same partition.
    """
    if num_shards < 1:
        raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if not node_counts:
        raise ValidationError("node_counts must be non-empty")
    ordered = tuple(sorted(set(node_counts)))
    entries = [
        ShardEntry(n_nodes=n, index=i) for n in ordered for i in range(count)
    ]
    buckets: List[List[ShardEntry]] = [[] for _ in range(num_shards)]
    for pos, entry in enumerate(entries):
        buckets[pos % num_shards].append(entry)
    return [
        ShardSpec(
            shard=k,
            num_shards=num_shards,
            entries=tuple(bucket),
            node_counts=ordered,
            count=count,
            seed=seed,
        )
        for k, bucket in enumerate(buckets)
    ]

"""Task-mapping exploration around the bus optimiser (extension).

Section 6.2 of the paper motivates the OBC/CF heuristic's speed with
"the bus access optimisation heuristic can be placed inside other
optimisation loops, e.g. for task mapping".  This module provides that
outer loop: a hill-climbing search over task-to-node mappings that
invokes a (cheap) bus optimisation for every candidate mapping and
keeps the assignment with the best achievable cost.

Remapping a task can change which edges cross nodes, so the move
rebuilds the affected graph: a crossing edge becomes a message and a
now-local edge becomes a plain precedence (its payload is dropped,
matching the paper's model where intra-node communication is part of
the WCET).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bbc import optimise_bbc
from repro.core.obc import optimise_obc
from repro.core.result import OptimisationResult
from repro.core.search import BusOptimisationOptions
from repro.core.strategies import valid_limit
from repro.errors import ConfigurationError, OptimisationError, ValidationError
from repro.model.application import Application
from repro.model.graph import TaskGraph
from repro.model.message import Message
from repro.model.system import System
from repro.model.task import Task


@dataclass(frozen=True)
class MappingOptions:
    """Budget and inner-optimiser selection for the mapping search."""

    iterations: int = 20
    seed: int = 13
    #: Inner bus optimiser: "bbc" (fast, the default for exploration) or
    #: "obc-cf" (slower, tighter).
    inner: str = "bbc"
    max_seconds: Optional[float] = None
    #: Default message payload (bytes) when a precedence edge starts
    #: crossing nodes after a move and needs a message.
    new_message_size: int = 8

    def __post_init__(self):
        if not valid_limit(self.max_seconds):
            raise ConfigurationError(
                f"max_seconds={self.max_seconds!r} must be None or a number >= 0"
            )
        for name, least in (("iterations", 0), ("new_message_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigurationError(
                    f"{name}={value!r} must be an int >= {least}"
                )


@dataclass(frozen=True)
class MappingResult:
    """Outcome of the mapping exploration."""

    system: System
    bus: OptimisationResult
    moves_tried: int
    moves_accepted: int
    elapsed_seconds: float

    @property
    def cost(self) -> float:
        """Cost of the best (mapping, bus configuration) pair."""
        return self.bus.cost


def optimise_mapping(
    system: System,
    options: BusOptimisationOptions = None,
    mapping_options: MappingOptions = None,
) -> MappingResult:
    """Hill-climb over task mappings with a bus optimisation per step."""
    options = options or BusOptimisationOptions()
    mapping_options = mapping_options or MappingOptions()
    if mapping_options.inner not in ("bbc", "obc-cf"):
        raise OptimisationError(
            f"unknown inner optimiser {mapping_options.inner!r}"
        )
    start = time.perf_counter()
    rng = random.Random(mapping_options.seed)

    current = system
    current_bus = _inner(current, options, mapping_options)
    tried = accepted = 0

    for _ in range(mapping_options.iterations):
        if (
            mapping_options.max_seconds is not None
            and time.perf_counter() - start > mapping_options.max_seconds
        ):
            break
        candidate = _random_remap(current, rng, mapping_options)
        if candidate is None:
            continue
        tried += 1
        candidate_bus = _inner(candidate, options, mapping_options)
        if candidate_bus.cost < current_bus.cost:
            current, current_bus = candidate, candidate_bus
            accepted += 1

    return MappingResult(
        system=current,
        bus=current_bus,
        moves_tried=tried,
        moves_accepted=accepted,
        elapsed_seconds=time.perf_counter() - start,
    )


def _inner(system, options, mapping_options) -> OptimisationResult:
    if mapping_options.inner == "bbc":
        return optimise_bbc(system, options)
    return optimise_obc(system, options, method="curvefit")


def _random_remap(
    system: System, rng: random.Random, mapping_options: MappingOptions
) -> Optional[System]:
    """Move one random task to a random other node (None when illegal)."""
    tasks = sorted(system.application.tasks(), key=lambda t: t.name)
    task = tasks[rng.randrange(len(tasks))]
    targets = [n for n in system.nodes if n != task.node]
    if not targets:
        return None
    target = targets[rng.randrange(len(targets))]
    try:
        return remap_task(system, task.name, target, mapping_options)
    except ValidationError:
        return None


def remap_task(
    system: System,
    task_name: str,
    target_node: str,
    mapping_options: MappingOptions = None,
) -> System:
    """A copy of *system* with *task_name* mapped onto *target_node*.

    Messages touching the task are converted to precedences when they
    become node-local, and precedences touching it become messages when
    they start crossing nodes.
    """
    mapping_options = mapping_options or MappingOptions()
    if target_node not in system.nodes:
        raise OptimisationError(f"unknown node {target_node!r}")
    app = system.application
    graphs: List[TaskGraph] = []
    for g in app.graphs:
        if all(t.name != task_name for t in g.tasks):
            graphs.append(g)
            continue
        graphs.append(_rebuild_graph(g, task_name, target_node, mapping_options))
    return System(system.nodes, Application(app.name, tuple(graphs)))


def _rebuild_graph(
    graph: TaskGraph,
    task_name: str,
    target_node: str,
    mapping_options: MappingOptions,
) -> TaskGraph:
    node_of: Dict[str, str] = {t.name: t.node for t in graph.tasks}
    node_of[task_name] = target_node
    tasks = tuple(
        Task(
            name=t.name,
            wcet=t.wcet,
            node=node_of[t.name],
            policy=t.policy,
            priority=t.priority,
            release=t.release,
            deadline=t.deadline,
        )
        for t in graph.tasks
    )
    kind = None
    messages: List[Message] = []
    precedences: List[Tuple[str, str]] = list(graph.precedences)
    sizes: Dict[Tuple[str, str], int] = {}

    # Existing messages: keep, or collapse to precedence when now local.
    for m in graph.messages:
        kind = m.kind
        receiver = m.receivers[0]
        if node_of[m.sender] == node_of[receiver]:
            for r in m.receivers:
                precedences.append((m.sender, r))
        else:
            messages.append(m)
        sizes[(m.sender, receiver)] = m.size

    # Precedences that started crossing nodes become messages.
    still_local: List[Tuple[str, str]] = []
    for a, b in precedences:
        if node_of[a] == node_of[b]:
            still_local.append((a, b))
            continue
        if kind is None:
            # Graph had no messages yet: infer the kind from the policy.
            from repro.model.message import MessageKind

            kind = (
                MessageKind.ST if tasks[0].is_scs else MessageKind.DYN
            )
        messages.append(
            Message(
                name=f"{graph.name}_x_{a}__{b}",
                size=sizes.get((a, b), mapping_options.new_message_size),
                sender=a,
                receivers=(b,),
                kind=kind,
                priority=len(messages),
            )
        )
    return TaskGraph(
        name=graph.name,
        period=graph.period,
        deadline=graph.deadline,
        tasks=tasks,
        messages=tuple(messages),
        precedences=tuple(still_local),
    )

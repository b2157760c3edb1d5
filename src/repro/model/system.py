"""System = processing nodes + application (Section 2 of the paper).

The bus configuration itself (slot sizes, FrameIDs, ...) is *not* part of
the system: it is the design variable the optimisers search over, modelled
by :class:`repro.core.config.FlexRayConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import ModelError, ValidationError
from repro.model.application import Application
from repro.model.message import Message
from repro.model.task import Task


@dataclass(frozen=True)
class System:
    """A distributed architecture: named nodes connected by one FlexRay bus.

    Parameters
    ----------
    nodes:
        Names of the processing nodes (ECUs).  Every task of the
        application must be mapped onto one of them.
    application:
        The :class:`~repro.model.application.Application` running on the
        architecture.
    """

    nodes: Tuple[str, ...]
    application: Application

    _tasks_by_node: Mapping[str, Tuple[Task, ...]] = field(
        default=None, repr=False, compare=False
    )
    _sender_nodes: Mapping[str, str] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValidationError("system needs >= 1 node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("node names must be unique")
        by_node: Dict[str, list] = {n: [] for n in self.nodes}
        for t in self.application.tasks():
            if t.node not in by_node:
                raise ValidationError(
                    f"task {t.name!r} is mapped to unknown node {t.node!r}"
                )
            by_node[t.node].append(t)
        object.__setattr__(
            self, "_tasks_by_node", {n: tuple(ts) for n, ts in by_node.items()}
        )
        object.__setattr__(
            self,
            "_sender_nodes",
            {
                m.name: g.task(m.sender).node
                for g in self.application.graphs
                for m in g.messages
            },
        )

    # ------------------------------------------------------------------
    def tasks_on(self, node: str) -> Tuple[Task, ...]:
        """All tasks mapped to *node*."""
        try:
            return self._tasks_by_node[node]
        except KeyError:
            raise ModelError(f"system has no node {node!r}") from None

    def sender_node(self, message: Message) -> str:
        """Node that transmits *message*."""
        node = self._sender_nodes.get(message.name)
        if node is None:  # no such message: the graph walk raises its error
            return self.application.graph_of(message.name).task(message.sender).node
        return node

    def st_sender_nodes(self) -> Tuple[str, ...]:
        """Nodes that transmit at least one ST message (``nodesST``), in node order."""
        senders = {self.sender_node(m) for m in self.application.st_messages()}
        return tuple(n for n in self.nodes if n in senders)

    def dyn_sender_nodes(self) -> Tuple[str, ...]:
        """Nodes that transmit at least one DYN message, in node order."""
        senders = {self.sender_node(m) for m in self.application.dyn_messages()}
        return tuple(n for n in self.nodes if n in senders)

    def messages_sent_by(self, node: str) -> Iterator[Message]:
        """All messages whose sender task runs on *node*."""
        if node not in self._tasks_by_node:
            raise ModelError(f"system has no node {node!r}")
        senders = self._sender_nodes
        for m in self.application.messages():
            if senders[m.name] == node:
                yield m

    def node_utilisation(self, node: str) -> float:
        """CPU utilisation of *node*: sum of wcet/period over its tasks."""
        return sum(
            t.wcet / self.application.period_of(t.name) for t in self.tasks_on(node)
        )

    def describe(self) -> str:
        """One-line human-readable summary."""
        app = self.application
        n_tasks = sum(1 for _ in app.tasks())
        n_msgs = sum(1 for _ in app.messages())
        n_st = sum(1 for _ in app.st_messages())
        return (
            f"System({len(self.nodes)} nodes, {len(app.graphs)} graphs, "
            f"{n_tasks} tasks, {n_msgs} messages [{n_st} ST / {n_msgs - n_st} DYN], "
            f"hyperperiod {app.hyperperiod})"
        )

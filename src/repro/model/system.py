"""System = processing nodes + application (Section 2 of the paper).

The bus configuration itself (slot sizes, FrameIDs, ...) is *not* part of
the system: it is the design variable the optimisers search over, modelled
by :class:`repro.core.config.FlexRayConfig`.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.errors import ModelError, ValidationError
from repro.model.application import Application
from repro.model.message import Message
from repro.model.task import Task
from repro.model.times import ceil_div, transmission_time

#: A system's messages lowered for one bus speed and minislot length
#: (:meth:`System.bus_table`): ``st`` and ``dyn`` are the ``(message,
#: sender node)`` pairs of each segment in application message order,
#: ``st_nodes``/``dyn_nodes`` their sender nodes in node order,
#: ``max_st_ct`` the largest ST transmission time (0 without ST
#: messages), ``dyn_largest`` per DYN-sending node (in node order) its
#: largest frame in minislots and ``senders`` the sender node of every
#: message by name.
BusTable = namedtuple(
    "BusTable", "st dyn st_nodes dyn_nodes max_st_ct dyn_largest senders"
)


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

    The per-segment message split is lowered once, at construction, and
    each bus speed's :class:`BusTable` on first use: bus validation,
    ``pLatestTx``, the optimisers' segment bounds and the sender-node
    queries read those tables instead of rescanning the application.
    """

    nodes: Tuple[str, ...]
    application: Application

    _tasks_by_node: Mapping[str, Tuple[Task, ...]] = field(
        default=None, repr=False, compare=False
    )
    _sender_nodes: Mapping[str, str] = field(
        default=None, repr=False, compare=False
    )
    _segments: tuple = field(default=None, repr=False, compare=False)
    _bus_tables: Mapping[tuple, BusTable] = field(
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
        senders = {
            m.name: g.task(m.sender).node
            for g in self.application.graphs
            for m in g.messages
        }
        object.__setattr__(self, "_sender_nodes", senders)
        # The bus-speed-independent half of every bus table.
        st, dyn = [], []
        for m in self.application.messages():
            (dyn if m.is_dynamic else st).append((m, senders[m.name]))
        st_senders = {node for _, node in st}
        dyn_senders = {node for _, node in dyn}
        object.__setattr__(self, "_segments", (
            tuple(st),
            tuple(dyn),
            tuple(n for n in self.nodes if n in st_senders),
            tuple(n for n in self.nodes if n in dyn_senders),
        ))
        object.__setattr__(self, "_bus_tables", {})

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

    def bus_table(
        self, bits_per_mt: int, frame_overhead_bytes: int, gd_minislot: int
    ) -> BusTable:
        """The :class:`BusTable` of one bus speed and minislot length,
        lowered on first use and cached on the system."""
        key = (bits_per_mt, frame_overhead_bytes, gd_minislot)
        table = self._bus_tables.get(key)
        if table is None:
            st, dyn, st_nodes, dyn_nodes = self._segments
            largest: Dict[str, int] = dict.fromkeys(dyn_nodes, 0)
            for m, node in dyn:
                q = ceil_div(
                    transmission_time(m.size, frame_overhead_bytes, bits_per_mt),
                    gd_minislot,
                )
                if q > largest[node]:
                    largest[node] = q
            table = self._bus_tables[key] = BusTable(
                st=st,
                dyn=dyn,
                st_nodes=st_nodes,
                dyn_nodes=dyn_nodes,
                max_st_ct=max(
                    (transmission_time(m.size, frame_overhead_bytes, bits_per_mt)
                     for m, _ in st),
                    default=0,
                ),
                dyn_largest=largest,
                senders=self._sender_nodes,
            )
        return table

    def st_sender_nodes(self) -> Tuple[str, ...]:
        """Nodes that transmit at least one ST message (``nodesST``), in
        node order (every bus table's ``st_nodes``)."""
        return self._segments[2]

    def dyn_sender_nodes(self) -> Tuple[str, ...]:
        """Nodes that transmit at least one DYN message, in node order
        (every bus table's ``dyn_nodes``)."""
        return self._segments[3]

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

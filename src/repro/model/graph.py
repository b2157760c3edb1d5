"""Task graphs.

An application is modelled as a set of directed acyclic graphs (Section 4
of the paper).  Vertices are tasks and messages; an inter-node
communication is represented by a :class:`~repro.model.message.Message`
vertex inserted on the arc between sender and receiver.  Intra-node
communication is a plain precedence edge (its cost is part of the sender's
WCET, as in the paper).

All tasks and messages of a graph share the graph's period; a deadline is
imposed on the whole graph and, optionally, on individual activities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import ModelError, ValidationError
from repro.model.message import Message
from repro.model.task import Task
from repro.model.times import check_time


@dataclass(frozen=True)
class TaskGraph:
    """A periodic DAG of tasks and messages.

    Parameters
    ----------
    name:
        Unique graph name within the application.
    period:
        Activation period (> 0) shared by every activity in the graph.
    deadline:
        Relative end-to-end deadline (> 0) applied to every activity that
        has no individual deadline.
    tasks / messages:
        The activities.  Message sender/receivers must reference tasks of
        this graph mapped to *different* nodes.
    precedences:
        Extra task-to-task edges for same-node data dependencies.
    """

    name: str
    period: int
    deadline: int
    tasks: Tuple[Task, ...]
    messages: Tuple[Message, ...] = ()
    precedences: Tuple[Tuple[str, str], ...] = ()

    # Derived adjacency, built once in __post_init__ (object.__setattr__
    # because the dataclass is frozen).
    _succ: Mapping[str, Tuple[str, ...]] = field(
        default=None, repr=False, compare=False
    )
    _pred: Mapping[str, Tuple[str, ...]] = field(
        default=None, repr=False, compare=False
    )
    _topo: Tuple[str, ...] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("graph name must be non-empty")
        check_time(self.period, f"graph {self.name!r} period", allow_zero=False)
        check_time(self.deadline, f"graph {self.name!r} deadline", allow_zero=False)
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(
            self, "precedences", tuple((str(a), str(b)) for a, b in self.precedences)
        )
        if not self.tasks:
            raise ValidationError(f"graph {self.name!r} must contain >= 1 task")

        task_by_name = {}
        for t in self.tasks:
            if t.name in task_by_name:
                raise ValidationError(
                    f"graph {self.name!r}: duplicate task name {t.name!r}"
                )
            task_by_name[t.name] = t
        msg_by_name = {}
        for m in self.messages:
            if m.name in msg_by_name or m.name in task_by_name:
                raise ValidationError(
                    f"graph {self.name!r}: duplicate activity name {m.name!r}"
                )
            msg_by_name[m.name] = m

        succ: Dict[str, List[str]] = {n: [] for n in (*task_by_name, *msg_by_name)}
        pred: Dict[str, List[str]] = {n: [] for n in succ}

        def add_edge(a: str, b: str) -> None:
            succ[a].append(b)
            pred[b].append(a)

        for m in self.messages:
            if m.sender not in task_by_name:
                raise ValidationError(
                    f"graph {self.name!r}: message {m.name!r} sender "
                    f"{m.sender!r} is not a task of this graph"
                )
            sender = task_by_name[m.sender]
            add_edge(m.sender, m.name)
            for r in m.receivers:
                if r not in task_by_name:
                    raise ValidationError(
                        f"graph {self.name!r}: message {m.name!r} receiver "
                        f"{r!r} is not a task of this graph"
                    )
                if task_by_name[r].node == sender.node:
                    raise ValidationError(
                        f"graph {self.name!r}: message {m.name!r} connects tasks "
                        f"on the same node {sender.node!r}; same-node communication "
                        "is part of the WCET and must be a precedence edge"
                    )
                add_edge(m.name, r)

        for a, b in self.precedences:
            if a not in task_by_name or b not in task_by_name:
                raise ValidationError(
                    f"graph {self.name!r}: precedence ({a!r}, {b!r}) references "
                    "a non-task or unknown activity"
                )
            if a == b:
                raise ValidationError(
                    f"graph {self.name!r}: self-loop precedence on {a!r}"
                )
            add_edge(a, b)

        topo = _topological_order(succ, pred, self.name)
        object.__setattr__(self, "_succ", {k: tuple(v) for k, v in succ.items()})
        object.__setattr__(self, "_pred", {k: tuple(v) for k, v in pred.items()})
        object.__setattr__(self, "_topo", tuple(topo))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def task(self, name: str) -> Task:
        """Return the task called *name* (raises :class:`ModelError` if absent)."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise ModelError(f"graph {self.name!r} has no task {name!r}")

    def message(self, name: str) -> Message:
        """Return the message called *name* (raises :class:`ModelError` if absent)."""
        for m in self.messages:
            if m.name == name:
                return m
        raise ModelError(f"graph {self.name!r} has no message {name!r}")

    def successors(self, name: str) -> Tuple[str, ...]:
        """Names of direct successors of activity *name*."""
        try:
            return self._succ[name]
        except KeyError:
            raise ModelError(f"graph {self.name!r} has no activity {name!r}") from None

    def predecessors(self, name: str) -> Tuple[str, ...]:
        """Names of direct predecessors of activity *name*."""
        try:
            return self._pred[name]
        except KeyError:
            raise ModelError(f"graph {self.name!r} has no activity {name!r}") from None

    def topological_order(self) -> Tuple[str, ...]:
        """All activity names in one valid topological order."""
        return self._topo

    def sources(self) -> Tuple[str, ...]:
        """Activities with no predecessors."""
        return tuple(n for n in self._topo if not self._pred[n])

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def activity_cost(self, name: str, message_cost: Mapping[str, int] = None) -> int:
        """Execution/transmission cost of one activity.

        Message costs depend on the bus speed, so callers may pass a
        precomputed ``message name -> C_m`` mapping; without one, the raw
        byte size is used (adequate for *relative* critical-path metrics).
        """
        for t in self.tasks:
            if t.name == name:
                return t.wcet
        m = self.message(name)
        if message_cost is not None:
            return message_cost[m.name]
        return m.size

    def longest_path_to(self, name: str, message_cost: Mapping[str, int] = None) -> int:
        """Length of the longest path from any source up to and including *name*.

        This is LP_m of Eq. (4) when *name* is a message.
        """
        self.successors(name)  # existence check
        dist: Dict[str, int] = {}
        for n in self._topo:
            cost = self.activity_cost(n, message_cost)
            best_pred = max((dist[p] for p in self._pred[n]), default=0)
            dist[n] = best_pred + cost
            if n == name:
                return dist[n]
        raise ModelError(f"activity {name!r} not reached in topological order")

    def longest_path_from(
        self, name: str, message_cost: Mapping[str, int] = None
    ) -> int:
        """Length of the longest path starting at *name* (inclusive) to any sink.

        Used as the (modified) critical-path priority of the list scheduler.
        """
        self.successors(name)  # existence check
        dist: Dict[str, int] = {}
        for n in reversed(self._topo):
            cost = self.activity_cost(n, message_cost)
            best_succ = max((dist[s] for s in self._succ[n]), default=0)
            dist[n] = best_succ + cost
        return dist[name]

    def activities(self) -> Iterator[str]:
        """Iterate over all activity names (tasks then messages, topo order)."""
        return iter(self._topo)


def _topological_order(
    succ: Mapping[str, Sequence[str]],
    pred: Mapping[str, Sequence[str]],
    graph_name: str,
) -> List[str]:
    """Kahn's algorithm; raises :class:`ValidationError` on cycles.

    Ties are broken by name so the order is deterministic across runs.
    """
    in_deg = {n: len(ps) for n, ps in pred.items()}
    ready = sorted(n for n, d in in_deg.items() if d == 0)
    order: List[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        inserted = False
        for s in succ[n]:
            in_deg[s] -= 1
            if in_deg[s] == 0:
                ready.append(s)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(in_deg):
        raise ValidationError(f"graph {graph_name!r} contains a cycle")
    return order

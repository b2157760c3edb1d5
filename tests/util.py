"""Shared builders for the test suite.

Every system, configuration and scenario factory that more than one
test module needs lives here -- the individual modules import these
instead of keeping their own drifting copies:

* task/message/system builders (``scs_task`` ... ``fig4_system``),
* ``FIG4_FRAME_IDS`` -- the frame-id map the Fig. 4 DYN messages use,
* ``iteration_limit_fps_system`` / ``iteration_limit_dyn_case`` --
  busy windows past the iteration limit inside a dependency cycle,
* ``campaign_systems`` / ``small_bus`` -- the canonical two-system
  campaign matrix and the tight search budget that keeps it fast,
* ``bound_scenario_systems`` / ``fuzz_faults`` -- the (system, config)
  grid and fault-model scenarios behind the fault-hypothesis soundness
  referee (``tests/test_faults.py``) and its hypothesis twin
  (``tests/test_properties.py``),
* ``resolve_rows`` -- name-keyed interferer rows resolved into the busy-
  window kernels' ``(period, jitter, size)`` rows,
* ``schedule_view`` -- a ``ScheduleTable`` over a hand-placed
  ``ScheduleRecord``,
* ``schedule_artifacts`` -- a context's schedule artifacts of a
  configuration at its own cycle length,
* ``oracle_validate_for`` / ``oracle_p_latest_tx`` /
  ``oracle_dyn_slots_of`` -- the original message-scanning bus
  validation, kept as the oracle of the table-driven
  ``FlexRayConfig.validate_for``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.schedule_table import JobTable, ScheduleRecord, ScheduleTable
from repro.core.config import FlexRayConfig
from repro.core.search import BusOptimisationOptions
from repro.errors import ConfigurationError
from repro.flexray.faults import (
    BlackoutFaults,
    GilbertElliottFaults,
    IidFaults,
)
from repro.flexray.timeline import st_slot_start
from repro.model.times import ceil_div, transmission_time
from repro.model import (
    Application,
    Message,
    MessageKind,
    SchedulingPolicy,
    System,
    Task,
    TaskGraph,
)

#: Frame identifiers for the three DYN messages of :func:`fig4_system`.
FIG4_FRAME_IDS = {"m1": 1, "m2": 2, "m3": 3}


def scs_task(name: str, wcet: int = 1, node: str = "N1", **kw) -> Task:
    return Task(name=name, wcet=wcet, node=node, policy=SchedulingPolicy.SCS, **kw)


def fps_task(name: str, wcet: int = 1, node: str = "N1", priority: int = 0, **kw) -> Task:
    return Task(
        name=name,
        wcet=wcet,
        node=node,
        policy=SchedulingPolicy.FPS,
        priority=priority,
        **kw,
    )


def st_msg(name: str, size: int, sender: str, receiver: str, **kw) -> Message:
    return Message(
        name=name,
        size=size,
        sender=sender,
        receivers=(receiver,),
        kind=MessageKind.ST,
        **kw,
    )


def dyn_msg(
    name: str, size: int, sender: str, receiver: str, priority: int = 0, **kw
) -> Message:
    return Message(
        name=name,
        size=size,
        sender=sender,
        receivers=(receiver,),
        kind=MessageKind.DYN,
        priority=priority,
        **kw,
    )


def single_graph_system(
    tasks: Sequence[Task],
    messages: Sequence[Message] = (),
    nodes: Tuple[str, ...] = ("N1", "N2"),
    period: int = 100,
    deadline: int = 100,
    precedences: Tuple[Tuple[str, str], ...] = (),
) -> System:
    graph = TaskGraph(
        name="g0",
        period=period,
        deadline=deadline,
        tasks=tuple(tasks),
        messages=tuple(messages),
        precedences=precedences,
    )
    return System(nodes, Application("app", (graph,)))


def fig3_system(period: int = 40, deadline: int = 40) -> System:
    """Two nodes; N1 sends m1 (4 MT), N2 sends m2 (3 MT) and m3 (2 MT), all ST."""
    tasks = [
        scs_task("t1", wcet=1, node="N1"),
        scs_task("t2", wcet=1, node="N2"),
        scs_task("r1", wcet=1, node="N2"),
        scs_task("r2", wcet=1, node="N1"),
        scs_task("r3", wcet=1, node="N1"),
    ]
    msgs = [
        st_msg("m1", 4, "t1", "r1"),
        st_msg("m2", 3, "t2", "r2"),
        st_msg("m3", 2, "t2", "r3"),
    ]
    return single_graph_system(tasks, msgs, period=period, deadline=deadline)


def fig4_system(period: int = 200, deadline: int = 120) -> System:
    """Two nodes exchanging three DYN messages (paper Fig. 4 shape).

    N1 sends m1 (9 MT) and m3 (3 MT); N2 sends m2 (5 MT).
    priority(m1) > priority(m3).
    """
    tasks = [
        scs_task("s1", wcet=1, node="N1"),
        scs_task("s2", wcet=1, node="N2"),
        fps_task("d1", wcet=1, node="N2", priority=1),
        fps_task("d2", wcet=1, node="N1", priority=1),
        fps_task("d3", wcet=1, node="N2", priority=2),
    ]
    msgs = [
        dyn_msg("m1", 9, "s1", "d1", priority=0),
        dyn_msg("m2", 5, "s2", "d2", priority=0),
        dyn_msg("m3", 3, "s1", "d3", priority=1),
    ]
    return single_graph_system(tasks, msgs, period=period, deadline=deadline)


def fps_only_node_system() -> System:
    """The :func:`fig4_system` shape on three nodes, N3 running FPS tasks
    only: N3's availability pattern is idle (the one-gap staircase).

    N1 sends m1 (9 MT) and m3 (3 MT), N2 sends m2 (5 MT) and N3 sends m4
    (4 MT) from its highest-priority task d4.
    """
    tasks = [
        scs_task("s1", wcet=1, node="N1"),
        scs_task("s2", wcet=2, node="N2"),
        fps_task("d1", wcet=3, node="N3", priority=1),
        fps_task("d2", wcet=1, node="N1", priority=1),
        fps_task("d3", wcet=2, node="N3", priority=2),
        fps_task("d4", wcet=4, node="N3", priority=0),
    ]
    msgs = [
        dyn_msg("m1", 9, "s1", "d1", priority=0),
        dyn_msg("m2", 5, "s2", "d2", priority=0),
        dyn_msg("m3", 3, "s1", "d3", priority=1),
        dyn_msg("m4", 4, "d4", "d2", priority=2),
    ]
    return single_graph_system(
        tasks, msgs, nodes=("N1", "N2", "N3"), period=200, deadline=120
    )


def iteration_limit_fps_system() -> System:
    """FPS task t on N1 needs about 600 demand steps (interferer x runs
    999 of every 1,000 MT), past the iteration limit, in a cycle with h:
    h follows t and preempts it, so t is evaluated again with its
    interferer's jitter grown."""
    g0 = TaskGraph(
        name="g0",
        period=10**7,
        deadline=10**7,
        tasks=(
            scs_task("s", node="N2"),
            fps_task("t", wcet=600, node="N1", priority=2),
            fps_task("h", node="N1", priority=0),
        ),
        messages=(dyn_msg("m", 4, "s", "t"),),
        precedences=(("t", "h"),),
    )
    g1 = TaskGraph(
        name="g1",
        period=1000,
        deadline=1000,
        tasks=(fps_task("x", wcet=999, node="N1", priority=1),),
    )
    return System(("N1", "N2"), Application("app", (g0, g1)))


def iteration_limit_dyn_case() -> Tuple[System, FlexRayConfig]:
    """DYN message m's busy window needs about 1,000 cycle steps (z in
    its frame every 501 MT of a 500 MT cycle), past the iteration limit
    and far below the cap, in a cycle: x shares m's frame and is sent
    after m's round trip m -> r -> m2 -> y, so m is evaluated again with
    x's jitter grown."""
    config = FlexRayConfig(
        static_slots=(),
        gd_static_slot=0,
        n_minislots=500,
        frame_ids={"z": 1, "x": 1, "m": 1, "m2": 2},
    )
    g0 = TaskGraph(
        name="g0",
        period=10**7,
        deadline=10**7,
        tasks=(
            fps_task("a", node="N1"),
            fps_task("r", node="N2"),
            fps_task("y", node="N1", priority=1),
            fps_task("q", node="N2", priority=1),
        ),
        messages=(
            dyn_msg("m", 4, "a", "r", priority=2),
            dyn_msg("m2", 4, "r", "y", priority=3),
            dyn_msg("x", 4, "y", "q", priority=1),
        ),
    )
    g1 = TaskGraph(
        name="g1",
        period=config.gd_cycle + 1,
        deadline=config.gd_cycle + 1,
        tasks=(
            fps_task("zs", node="N1", priority=2),
            fps_task("zr", node="N2", priority=2),
        ),
        messages=(dyn_msg("z", 4, "zs", "zr", priority=0),),
    )
    return System(("N1", "N2"), Application("app", (g0, g1))), config


def campaign_systems():
    """The canonical two-system campaign matrix: one ST-heavy system
    (paper Fig. 3) and one DYN-heavy system (paper Fig. 4)."""
    return {"static": fig3_system(), "dyn": fig4_system()}


def small_bus(**kw) -> BusOptimisationOptions:
    """A tightly budgeted search space: keeps optimiser-driving tests
    (campaigns, the service layer) fast without changing semantics."""
    return BusOptimisationOptions(
        max_dyn_points=8,
        ee_max_dyn_points=12,
        max_extra_static_slots=0,
        max_slot_size_steps=0,
        **kw,
    )


def bound_scenario_systems():
    """(system, config) pairs exercised by the fault-bound referees:
    an all-ST system, the Fig. 4 DYN system, and the same system with a
    longer dynamic segment."""
    return [
        (fig3_system(period=80, deadline=80), basic_config()),
        (
            fig4_system(),
            basic_config(frame_ids=FIG4_FRAME_IDS),
        ),
        (
            fig4_system(),
            basic_config(n_minislots=20, frame_ids=FIG4_FRAME_IDS),
        ),
    ]


def fuzz_faults(config):
    """The fault-model grid of the soundness referee: iid channels at
    two rates x three seeds, one bursty Gilbert--Elliott channel, and a
    three-cycle blackout."""
    scenarios = []
    for rate in (0.3, 0.6):
        for seed in (1, 2, 3):
            scenarios.append(IidFaults(rate=rate, seed=seed))
    scenarios.append(
        GilbertElliottFaults(
            good_to_bad=0.4, bad_to_good=0.3, bad_rate=0.8, seed=5
        )
    )
    scenarios.append(BlackoutFaults(((0, 3 * config.gd_cycle),)))
    return scenarios


def basic_config(
    system: System = None,
    static_slots: Tuple[str, ...] = ("N1", "N2"),
    gd_static_slot: int = 8,
    n_minislots: int = 13,
    frame_ids=None,
) -> FlexRayConfig:
    return FlexRayConfig(
        static_slots=static_slots,
        gd_static_slot=gd_static_slot,
        n_minislots=n_minislots,
        frame_ids=frame_ids or {},
    )


def resolve_rows(info, jitters, own_jitter):
    """The ``(period, jitter, size)`` rows of ``fps.resolved_busy_window``
    and ``dyn.resolved_busy_window`` from name-keyed ``(name, period,
    is_ancestor[, size])`` rows: an ancestor's jitter is the offset
    ``own_jitter - period``, any other interferer's its entry in
    *jitters* (0 when absent), and a missing size reads 0 (DYN hp rows).
    """
    return [
        (p, own_jitter - p if anc else jitters.get(name, 0), size[0] if size else 0)
        for name, p, anc, *size in info
    ]


def schedule_artifacts(context, config):
    """*context*'s schedule artifacts of *config* at its own cycle
    length, as its artifact builder replays them (uncached)."""
    return context._artifacts_at(config, config.gd_cycle)


def schedule_view(config, application, placements) -> ScheduleTable:
    """A ``ScheduleTable`` view of a hand-placed ``ScheduleRecord``.

    *placements* are ``(job_key, task, start)`` for SCS tasks and
    ``(job_key, message, cycle, slot)`` for ST messages, in placement
    order; a message takes the next free payload offset of its frame.
    Nothing is checked, so a test can build a schedule the scheduler
    never would (a frame sent before its sender finished, say).  The
    horizon is the application's hyper-period.
    """
    keys, activities, base, start, cell, duration, finish = (
        [] for _ in range(7)
    )
    busy, frame_used = {}, {}
    for key, activity, *where in placements:
        keys.append(key)
        activities.append(activity)
        base.append(int(key.rsplit("#", 1)[1]) * application.period_of(activity.name))
        if isinstance(activity, Task):
            (at,) = where
            busy.setdefault(activity.node, []).append((at, at + activity.wcet))
            start.append(at)
            cell.append(None)
            duration.append(activity.wcet)
            finish.append(at + activity.wcet)
        else:
            ct = config.message_ct(activity)
            used = frame_used.get(tuple(where), 0)
            frame_used[tuple(where)] = used + ct
            start.append(used)
            cell.append(tuple(where))
            duration.append(ct)
            finish.append(st_slot_start(config, *where) + used + ct)
    record = ScheduleRecord(
        JobTable(tuple(keys), tuple(activities), tuple(base)),
        application.hyperperiod,
        start,
        cell,
        duration,
        finish,
        {node: sorted(spans) for node, spans in busy.items()},
        frame_used,
    )
    return ScheduleTable.from_record(config, record)


# ----------------------------------------------------------------------
# The bus-validation oracle: the original ``validate_for``, which
# rescans the application per call.  Frozen: do not "fix" it, it is
# what the table-driven validator must match message for message.
# ----------------------------------------------------------------------
def _oracle_sender(system: System, message: Message) -> str:
    return system.application.graph_of(message.name).task(message.sender).node


def _oracle_ct(config: FlexRayConfig, message: Message) -> int:
    return transmission_time(
        message.size, config.frame_overhead_bytes, config.bits_per_mt
    )


def oracle_dyn_slots_of(config: FlexRayConfig, node: str, system: System):
    # An ST message named in ``frame_ids`` takes no dynamic slot (a
    # deliberate change of rule, made in ``dyn_slots_of`` alike).
    fids = set()
    for name, fid in config.frame_ids.items():
        message = system.application.message(name)  # ModelError if unknown
        if message.is_dynamic and _oracle_sender(system, message) == node:
            fids.add(fid)
    return tuple(sorted(fids))


def oracle_p_latest_tx(
    config: FlexRayConfig, node: str, system: System
) -> Optional[int]:
    system.tasks_on(node)  # raises ModelError for an unknown node
    largest = 0
    for m in system.application.messages():
        if m.is_dynamic and _oracle_sender(system, m) == node:
            largest = max(
                largest, ceil_div(_oracle_ct(config, m), config.gd_minislot)
            )
    if largest == 0:
        return None
    return config.n_minislots - largest + 1


def oracle_validate_for(config: FlexRayConfig, system: System) -> None:
    app = system.application
    nodes = set(system.nodes)
    for owner in config.static_slots:
        if owner not in nodes:
            raise ConfigurationError(
                f"static slot owner {owner!r} is not a node of the system"
            )
    slot_owners = set(config.static_slots)
    max_st_ct = 0
    for m in app.st_messages():
        sender = _oracle_sender(system, m)
        if sender not in slot_owners:
            raise ConfigurationError(
                f"node {sender!r} sends ST message {m.name!r} but owns no "
                "static slot"
            )
        max_st_ct = max(max_st_ct, _oracle_ct(config, m))
    if max_st_ct > config.gd_static_slot:
        raise ConfigurationError(
            f"gd_static_slot={config.gd_static_slot} cannot fit the largest ST "
            f"frame ({max_st_ct} MT)"
        )
    fid_owner: Dict[int, str] = {}
    for m in app.dyn_messages():
        if m.name not in config.frame_ids:
            raise ConfigurationError(
                f"DYN message {m.name!r} has no FrameID in this configuration"
            )
        sender = _oracle_sender(system, m)
        fid = config.frame_ids[m.name]
        if fid in fid_owner and fid_owner[fid] != sender:
            raise ConfigurationError(
                f"FrameID {fid} is shared by nodes {fid_owner[fid]!r} and "
                f"{sender!r}; a dynamic slot belongs to exactly one node"
            )
        fid_owner[fid] = sender
    for name in config.frame_ids:
        app.message(name)  # raises ModelError -> surfaced to the caller
    for name in config.frame_ids:
        if not app.message(name).is_dynamic:
            raise ConfigurationError(
                f"frame_ids names ST message {name!r}; only DYN messages "
                "take a FrameID"
            )
    dyn_senders = {_oracle_sender(system, m) for m in app.dyn_messages()}
    for node in (n for n in system.nodes if n in dyn_senders):
        latest = oracle_p_latest_tx(config, node, system)
        if latest is not None and latest < 1:
            raise ConfigurationError(
                f"the largest DYN frame of node {node!r} does not fit a "
                f"dynamic segment of {config.n_minislots} minislots"
            )
        for fid in oracle_dyn_slots_of(config, node, system):
            if latest is not None and fid > latest:
                raise ConfigurationError(
                    f"FrameID {fid} of node {node!r} exceeds its pLatestTx "
                    f"({latest}); the frame could never be sent"
                )

"""The flat schedule replay against an object-building reference.

``_oracle_table`` is the global static scheduling algorithm (Fig. 2) as
it was written before the replay worked on flat int tables: it expands
the jobs, orders them with the ready list, and places every job into
its own placement record (``_OracleTable``, one entry object per
placement, with overlap and frame-room checks) by a linear first-fit
scan.  :func:`repro.analysis.scheduler.build_schedule` and the analysis
context's static response times must reproduce it exactly -- every
task start, every ``(cycle, slot, offset)``, the busy intervals and the
static WCRT in dict order -- and fail with the same message wherever it
fails.
"""

import bisect
import hashlib
import heapq
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.availability import merge_intervals, wrap_busy_intervals
from repro.analysis.context import AnalysisContext
from repro.analysis.fps import node_local_fps_cost
from repro.analysis.holistic import AnalysisOptions
from repro.analysis.priorities import critical_path_priorities
from repro.analysis.schedule_table import (
    ScheduledMessage,
    ScheduledTask,
    ScheduleTable,
)
from repro.analysis.scheduler import ScheduleOptions, build_schedule
from repro.analysis.st_msg import static_response_times
from repro.core.bbc import basic_configuration
from repro.core.config import FlexRayConfig
from repro.core.dynlen import sweep_lengths
from repro.core.obc import _static_variants
from repro.core.search import (
    BusOptimisationOptions,
    dyn_segment_bounds,
    min_static_slot,
)
from repro.errors import SchedulingError
from repro.model import Task
from repro.model.jobs import expand_jobs
from repro.synth.suite import paper_system
from repro.synth.taskgraph_gen import GeneratorConfig, generate_system

from tests.util import (
    dyn_msg,
    fps_task,
    schedule_artifacts,
    scs_task,
    single_graph_system,
    st_msg,
)


# ----------------------------------------------------------------------
# the reference: today's algorithm, one entry object per placement
# ----------------------------------------------------------------------
class _OracleTable:
    """The reference's placement record: entries by job key, per-node
    sorted busy intervals and per-frame payload, read through the same
    ``tasks`` / ``messages`` / ``busy_intervals`` / ``horizon`` surface
    as a ``ScheduleTable``.  Every placement is checked: no job twice,
    no overlapping tasks on a node, no frame over its payload."""

    def __init__(self, config, horizon):
        self.config = config
        self.horizon = horizon
        self.tasks = {}
        self.messages = {}
        self._busy = {}
        self._frame_used = {}

    def busy_intervals(self, node):
        return list(self._busy.get(node, []))

    def frame_used(self, cycle, slot):
        return self._frame_used.get((cycle, slot), 0)

    def finish_of(self, job_key):
        entry = self.tasks.get(job_key) or self.messages.get(job_key)
        return None if entry is None else entry.finish

    def add_task(self, job_key, task, start):
        if job_key in self.tasks:
            raise SchedulingError(f"job {job_key!r} already scheduled")
        end = start + task.wcet
        intervals = self._busy.setdefault(task.node, [])
        idx = bisect.bisect_left(intervals, (start, end))
        for neighbour in intervals[max(0, idx - 1) : idx + 1]:
            if neighbour[0] < end and start < neighbour[1]:
                raise SchedulingError(
                    f"job {job_key!r} at [{start}, {end}) overlaps interval "
                    f"{neighbour} on node {task.node!r}"
                )
        intervals.insert(idx, (start, end))
        self.tasks[job_key] = ScheduledTask(job_key, task, start)

    def add_message(self, job_key, message, cycle, slot):
        if job_key in self.messages:
            raise SchedulingError(f"job {job_key!r} already scheduled")
        ct = self.config.message_ct(message)
        used = self.frame_used(cycle, slot)
        if used + ct > self.config.gd_static_slot:
            raise SchedulingError(
                f"frame (cycle {cycle}, slot {slot}) has {used} MT used; message "
                f"{message.name!r} ({ct} MT) does not fit gd_static_slot="
                f"{self.config.gd_static_slot}"
            )
        self._frame_used[(cycle, slot)] = used + ct
        self.messages[job_key] = ScheduledMessage(
            job_key, message, cycle, slot, used, ct, self.config
        )


def _oracle_table(system, config, options=None, wcrt_estimates=None):
    options = options or ScheduleOptions()
    app = system.application
    priorities = critical_path_priorities(app, config)
    horizon = app.hyperperiod
    table = _OracleTable(config, horizon)
    jobs = expand_jobs(app, scs_only=True, horizon=horizon)
    by_key = {j.key: j for j in jobs}
    pending, successors = {}, {}
    for j in jobs:
        count = 0
        for pred in j.graph.predecessors(j.name):
            pred_key = f"{pred}#{j.instance}"
            if pred_key in by_key:
                count += 1
                successors.setdefault(pred_key, []).append(j.key)
        pending[j.key] = count

    def entry(job):
        return (-priorities[job.name], job.release, job.name, job.instance, job)

    ready = [entry(j) for j in jobs if pending[j.key] == 0]
    heapq.heapify(ready)
    while ready:
        job = heapq.heappop(ready)[-1]
        asap = job.release
        for pred in job.graph.predecessors(job.name):
            pred_key = f"{pred}#{job.instance}"
            if pred_key in by_key:
                asap = max(asap, table.finish_of(pred_key))
            elif wcrt_estimates is None or pred not in wcrt_estimates:
                raise SchedulingError(
                    f"SCS activity {job.name!r} depends on event-triggered "
                    f"activity {pred!r}; pass wcrt_estimates to schedule it"
                )
            else:
                base = job.instance * job.graph.period
                asap = max(asap, base + wcrt_estimates[pred])
        if isinstance(job.activity, Task):
            _oracle_task(table, system, job, asap, options)
        else:
            _oracle_message(table, system, config, job, asap, options, horizon)
        for succ_key in successors.get(job.key, ()):
            pending[succ_key] -= 1
            if pending[succ_key] == 0:
                heapq.heappush(ready, entry(by_key[succ_key]))
    return table


def _linear_first_fit(table, node, earliest, duration):
    t = max(0, earliest)
    for s, e in table.busy_intervals(node):
        if e <= t:
            continue
        if s >= t + duration:
            break
        t = max(t, e)
    return t


def _oracle_task(table, system, job, asap, options):
    task = job.activity
    if not options.fps_aware:
        start = _linear_first_fit(table, task.node, asap, task.wcet)
        table.add_task(job.key, task, start)
        return
    k = max(1, options.fps_candidates)
    latest = max(asap, job.abs_deadline - task.wcet)
    raw = {asap}
    if k > 1 and latest > asap:
        for j in range(1, k):
            raw.add(asap + round(j * (latest - asap) / (k - 1)))
    starts = sorted({_linear_first_fit(table, task.node, t, task.wcet) for t in raw})
    best_start, best_score = None, None
    for start in starts:
        busy = table.busy_intervals(task.node)
        busy.append((start, start + task.wcet))
        score = node_local_fps_cost(system, task.node, busy, table.horizon)
        if best_score is None or (score, start) < (best_score, best_start):
            best_start, best_score = start, score
    table.add_task(job.key, task, best_start)


def _oracle_message(table, system, config, job, ready, options, horizon):
    message = job.activity
    node = system.sender_node(message)
    slots = config.st_slots_of(node)
    if not slots:
        raise SchedulingError(
            f"node {node!r} sends ST message {message.name!r} but owns no static slot"
        )
    ct = config.message_ct(message)
    limit = options.horizon_factor * horizon + config.gd_cycle
    cycle = max(0, ready // config.gd_cycle)
    while cycle * config.gd_cycle < limit:
        for slot in slots:
            slot_start = cycle * config.gd_cycle + (slot - 1) * config.gd_static_slot
            if slot_start < ready:
                continue
            if table.frame_used(cycle, slot) + ct <= config.gd_static_slot:
                table.add_message(job.key, message, cycle, slot)
                return
        cycle += 1
    raise SchedulingError(
        f"no static slot instance before {limit} MT can carry message "
        f"{job.key!r} (ready at {ready}, C_m={ct})"
    )


def _oracle_instant_tables(busy, period):
    """The availability pattern's kernel tables, computed the way
    ``NodeAvailability`` did before it derived them in one pass."""
    merged = merge_intervals(wrap_busy_intervals(busy, period))
    gaps, prev = [], 0
    for s, e in merged:
        if s > prev:
            gaps.append((prev, s))
        prev = e
    if prev < period:
        gaps.append((prev, period))
    instants = [0] + [s for s, _ in merged]
    gap_starts = [s for s, _ in gaps]
    gap_ends = [e for _, e in gaps]
    through, acc = [], 0
    for s, e in gaps:
        acc += e - s
        through.append(acc)

    def slack_before(x):
        i = bisect.bisect_right(gap_starts, x) - 1
        if i < 0:
            return 0
        return through[i] - (gap_ends[i] - min(gap_ends[i], x))

    end_of_run = dict(merged)

    def initial_block(t):
        return end_of_run[t] - t if t in end_of_run else 0

    order = tuple(
        sorted(
            range(len(instants)),
            key=lambda i: (-initial_block(instants[i]), i),
        )
    )
    busy_total = sum(e - s for s, e in merged)
    return (
        merged, instants, [slack_before(t) for t in instants],
        period - busy_total, period, gap_ends, through, order,
    )


def _check_availability(system, context, config, options=None):
    """The context's availability patterns equal the oracle's, built
    from the reference table's busy intervals."""
    arts = schedule_artifacts(context, config)
    if arts.failure is not None:
        return
    table = _oracle_table(system, config, options)
    for node in system.nodes:
        av = arts.availability[node]
        tables = av.instant_advance_tables()
        assert (av.busy, *tables[:7]) == _oracle_instant_tables(
            table.busy_intervals(node), table.horizon
        ), node


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def fingerprint(table, static_wcrt):
    """Every observable of a table plus its static WCRT, in dict order."""
    nodes = sorted({e.task.node for e in table.tasks.values()})
    return (
        table.horizon,
        tuple((k, e.task.name, e.start) for k, e in table.tasks.items()),
        tuple(
            (k, e.message.name, e.cycle, e.slot, e.offset, e.ct, e.start, e.finish)
            for k, e in table.messages.items()
        ),
        tuple((n, tuple(table.busy_intervals(n))) for n in nodes),
        tuple(static_wcrt.items()),
    )


def _oracle_outcome(system, config, options=None, wcrt_estimates=None):
    try:
        table = _oracle_table(system, config, options, wcrt_estimates)
    except SchedulingError as exc:
        return ("error", str(exc))
    return fingerprint(table, static_response_times(system.application, table))


def _view_outcome(system, config, options=None, wcrt_estimates=None):
    try:
        table = build_schedule(system, config, options, wcrt_estimates)
    except SchedulingError as exc:
        return ("error", str(exc))
    return fingerprint(table, static_response_times(system.application, table))


def _context_outcome(context, config):
    """The schedule as the analysis context builds it."""
    arts = schedule_artifacts(context, config)
    if arts.failure is not None:
        prefix = "static scheduling failed: "
        assert arts.failure.startswith(prefix)
        return ("error", arts.failure[len(prefix):])
    table = ScheduleTable.from_record(config, arts.record)
    return fingerprint(table, arts.static_wcrt)


# ----------------------------------------------------------------------
# fuzzed systems and configurations
# ----------------------------------------------------------------------
@st.composite
def synth_system(draw):
    n_nodes = draw(st.integers(2, 4))
    per_node = draw(st.sampled_from((2, 4)))
    return generate_system(
        GeneratorConfig(
            n_nodes=n_nodes,
            tasks_per_node=per_node,
            tasks_per_graph=2,
            tt_graph_share=draw(st.sampled_from((0.5, 0.75, 1.0))),
            periods=draw(st.sampled_from(((10_000, 20_000), (10_000, 20_000, 40_000)))),
            seed=draw(st.integers(0, 10_000)),
        )
    )


def _configs(system, draw):
    """A short DYN sweep, plus mutants that stress the slot search."""
    bus = BusOptimisationOptions()
    st_nodes = system.st_sender_nodes()
    slot = min_static_slot(system, bus) if st_nodes else 0
    lo, hi = dyn_segment_bounds(system, len(st_nodes) * slot, bus)
    configs = [
        basic_configuration(system, n, bus)
        for n in sweep_lengths(lo, hi, draw(st.integers(1, 3)))
    ]
    if st_nodes:
        base = configs[0]
        # Too-small slots: messages spill or find no instance at all.
        configs.append(
            FlexRayConfig(
                static_slots=base.static_slots,
                gd_static_slot=max(1, slot // draw(st.sampled_from((2, 3)))),
                n_minislots=base.n_minislots,
            )
        )
        # A sender left without a static slot.
        if len(st_nodes) > 1:
            configs.append(
                FlexRayConfig(
                    static_slots=st_nodes[1:],
                    gd_static_slot=slot,
                    n_minislots=base.n_minislots,
                )
            )
        # Extra slots shared round-robin: several frames per cycle.
        configs.append(
            FlexRayConfig(
                static_slots=tuple(st_nodes) * 2,
                gd_static_slot=slot,
                n_minislots=base.n_minislots,
            )
        )
    return configs


SCHEDULE_OPTIONS = st.builds(
    ScheduleOptions,
    fps_aware=st.booleans(),
    fps_candidates=st.integers(1, 4),
    horizon_factor=st.sampled_from((1, 4)),
)


class TestReplayMatchesOracle:
    @given(system=synth_system(), options=SCHEDULE_OPTIONS, data=st.data())
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzzed_synth_systems(self, system, options, data):
        configs = _configs(system, data.draw)
        context = AnalysisContext(system, AnalysisOptions(schedule=options))
        for config in configs:
            expected = _oracle_outcome(system, config, options)
            assert _view_outcome(system, config, options) == expected
            assert _context_outcome(context, config) == expected
            _check_availability(system, context, config, options)

    def test_failures_are_exercised(self):
        """The fuzz above reaches every replay failure it can."""
        system = paper_system(3, 1, seed=23)
        base = basic_configuration(system, 40)
        no_slot = FlexRayConfig(
            static_slots=base.static_slots[1:],
            gd_static_slot=base.gd_static_slot,
            n_minislots=40,
        )
        cramped = FlexRayConfig(
            static_slots=base.static_slots,
            gd_static_slot=1,
            n_minislots=40,
        )
        for config, match in (
            (no_slot, "owns no static slot"),
            (cramped, "no static slot instance before"),
        ):
            expected = _oracle_outcome(system, config)
            assert expected[0] == "error" and match in expected[1]
            assert _view_outcome(system, config) == expected

    @pytest.mark.parametrize("fps_aware", [False, True])
    def test_mixed_graph_needs_estimates(self, fps_aware):
        """An SCS task fed by an event-triggered activity: without an
        estimate the replay fails with the oracle's message, with one it
        places the task after the estimate."""
        tasks = (
            fps_task("e", wcet=5, node="N1", priority=1),
            scs_task("a", wcet=7, node="N2"),
            scs_task("b", wcet=3, node="N2"),
            scs_task("c", wcet=4, node="N1"),
        )
        messages = (
            dyn_msg("dm", 4, "e", "a", priority=1),
            st_msg("sm", 4, "a", "c"),
        )
        system = single_graph_system(
            tasks, messages, period=200, deadline=200, precedences=(("a", "b"),)
        )
        config = FlexRayConfig(
            static_slots=("N1", "N2"), gd_static_slot=8, n_minislots=20,
            frame_ids={"dm": 1},
        )
        options = ScheduleOptions(fps_aware=fps_aware)
        missing = _oracle_outcome(system, config, options)
        assert missing[0] == "error" and "pass wcrt_estimates" in missing[1]
        assert _view_outcome(system, config, options) == missing
        for estimates in ({"dm": 17}, {"dm": 17, "e": 5}, {"dm": 500}):
            expected = _oracle_outcome(system, config, options, estimates)
            assert expected[0] != "error"
            assert _view_outcome(system, config, options, estimates) == expected


# ----------------------------------------------------------------------
# the pinned Fig. 9-scale sweep
# ----------------------------------------------------------------------
#: The OBC/EE preset of the Fig. 9 benchmark: 192-point DYN sweeps.
EE_BUS = BusOptimisationOptions(
    max_dyn_points=32,
    ee_max_dyn_points=192,
    cf_candidates=128,
    max_extra_static_slots=1,
    max_slot_size_steps=2,
)

#: sha256 of the fingerprints of the first OBC/EE static variant's
#: 192-point DYN sweep on ``paper_system(3, 1, seed=23)``, computed
#: with the object-building replay.
EE_SWEEP_SHA256 = "0775a68a3db8007bbc5c2595fef5d43a82c386eece748345b8809f33ea270e50"


def ee_sweep_configs():
    system = paper_system(3, 1, seed=23)
    template, lo, hi = _static_variants(system, EE_BUS)[0]
    configs = [template.with_dyn_length(n) for n in sweep_lengths(lo, hi, 192)]
    return system, configs


def ee_sweep_digest():
    system, configs = ee_sweep_configs()
    context = AnalysisContext(system)
    digest = hashlib.sha256()
    for config in configs:
        digest.update(repr(_context_outcome(context, config)).encode())
    return digest.hexdigest()


class TestPinnedSweep:
    def test_ee_sweep_matches_pin(self):
        system, configs = ee_sweep_configs()
        assert len(configs) == 192
        assert ee_sweep_digest() == EE_SWEEP_SHA256

    def test_ee_sweep_matches_oracle(self):
        system, configs = ee_sweep_configs()
        context = AnalysisContext(system)
        for config in random.Random(5).sample(configs, 12):
            assert _context_outcome(context, config) == _oracle_outcome(system, config)
            _check_availability(system, context, config)


class TestView:
    def _table(self):
        system = paper_system(3, 1, seed=23)
        return build_schedule(system, basic_configuration(system, 40))

    def test_finish_of_reads_the_record(self):
        table = self._table()
        assert table.record is not None
        finishes = {k: table.finish_of(k) for k in table.record.jobs.keys}
        assert table._tasks is None  # answered without building entries
        expected = {k: e.finish for k, e in table.tasks.items()}
        expected.update((k, e.finish) for k, e in table.messages.items())
        assert finishes == expected
        assert table.finish_of("nope#0") is None

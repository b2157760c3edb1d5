"""Unit tests for FPS response-time analysis with SCS interference."""

import math

import pytest

from repro.analysis.availability import NodeAvailability
from repro.analysis.fps import (
    fps_task_busy_window,
    hp_tasks,
    node_local_fps_cost,
    resolved_busy_window,
)

from tests.util import fps_task, scs_task, single_graph_system


CAP = 10_000


def periods(mapping):
    return lambda name: mapping[name]


class TestHpTasks:
    def test_strictly_higher_priority_included(self):
        a = fps_task("a", priority=1)
        b = fps_task("b", priority=2)
        assert hp_tasks(b, [a, b]) == [a]
        assert hp_tasks(a, [a, b]) == []

    def test_equal_priority_peers_included(self):
        a = fps_task("a", priority=1)
        b = fps_task("b", priority=1)
        assert hp_tasks(b, [a, b]) == [a]
        assert hp_tasks(a, [a, b]) == []  # 'a' sorts before 'b'

    def test_scs_tasks_never_interfere_here(self):
        s = scs_task("s")
        b = fps_task("b", priority=9)
        assert hp_tasks(b, [s, b]) == []


class TestBusyWindow:
    def test_no_interference_full_availability(self):
        av = NodeAvailability([], period=100)
        t = fps_task("t", wcet=7)
        r = fps_task_busy_window(t, [], av, {}, periods({}), cap=10_000)
        assert r.value == 7 and r.converged

    def test_classic_rta_two_tasks(self):
        # hp: C=2, T=10; own C=5 -> w = 5 + ceil(w/10)*2 -> 7
        av = NodeAvailability([], period=100)
        hi = fps_task("hi", wcet=2, priority=1)
        lo = fps_task("lo", wcet=5, priority=2)
        r = fps_task_busy_window(
            lo, [hi], av, {}, periods({"hi": 10, "lo": 100}), cap=10_000
        )
        assert r.value == 7

    def test_rta_with_second_preemption(self):
        # hp: C=4, T=10; own C=7 -> w = 7+4 = 11 -> 7+8 = 15 -> stable
        av = NodeAvailability([], period=1000)
        hi = fps_task("hi", wcet=4, priority=1)
        lo = fps_task("lo", wcet=7, priority=2)
        r = fps_task_busy_window(
            lo, [hi], av, {}, periods({"hi": 10, "lo": 1000}), cap=10_000
        )
        assert r.value == 15

    def test_jitter_increases_interference(self):
        av = NodeAvailability([], period=1000)
        hi = fps_task("hi", wcet=4, priority=1)
        lo = fps_task("lo", wcet=7, priority=2)
        r = fps_task_busy_window(
            lo, [hi], av, {"hi": 6}, periods({"hi": 10, "lo": 1000}), cap=10_000
        )
        # w=15 without jitter; with J=6: ceil((15+6)/10)=3 -> w=19 -> ceil(25/10)=3 stable
        assert r.value == 19

    def test_scs_busy_interval_delays_task(self):
        # Node busy [0, 50) each period of 100; FPS task C=5 released at busy start.
        av = NodeAvailability([(0, 50)], period=100)
        t = fps_task("t", wcet=5)
        r = fps_task_busy_window(t, [], av, {}, periods({}), cap=10_000)
        assert r.value == 55

    def test_critical_instant_is_worst_busy_start(self):
        # Two SCS blocks; the longer one dominates.
        av = NodeAvailability([(10, 20), (40, 70)], period=100)
        t = fps_task("t", wcet=5)
        r = fps_task_busy_window(t, [], av, {}, periods({}), cap=10_000)
        assert r.value == 35  # released at 40, runs [70, 75)

    def test_divergent_load_hits_cap(self):
        av = NodeAvailability([], period=100)
        hi = fps_task("hi", wcet=10, priority=1)
        lo = fps_task("lo", wcet=5, priority=2)
        r = fps_task_busy_window(
            lo, [hi], av, {}, periods({"hi": 10, "lo": 100}), cap=500
        )
        assert r.value == 500 and not r.converged

    def test_no_slack_hits_cap(self):
        av = NodeAvailability([(0, 100)], period=100)
        t = fps_task("t", wcet=1)
        r = fps_task_busy_window(t, [], av, {}, periods({}), cap=777)
        assert r.value == 777 and not r.converged


class TestNodeLocalCost:
    def test_zero_without_fps_tasks(self):
        sys_ = single_graph_system([scs_task("s", node="N1")], nodes=("N1",))
        assert node_local_fps_cost(sys_, "N1", [(0, 10)], 100) == 0.0

    def test_cost_grows_with_scs_load(self):
        sys_ = single_graph_system(
            [
                scs_task("s", wcet=10, node="N1"),
                fps_task("e", wcet=5, node="N1", priority=1),
            ],
            nodes=("N1",),
        )
        low = node_local_fps_cost(sys_, "N1", [(0, 10)], 100)
        high = node_local_fps_cost(sys_, "N1", [(0, 60)], 100)
        assert high > low

    def test_infinite_when_fps_starves(self):
        sys_ = single_graph_system(
            [fps_task("e", wcet=5, node="N1", priority=1)], nodes=("N1",)
        )
        assert node_local_fps_cost(sys_, "N1", [(0, 100)], 100) == math.inf


class TestExactMultipleActivations:
    """An interferer released with jitter J is active ``ceil((w + J) /
    T)`` times in a window w: when ``w + J`` is an exact multiple k*T
    that is k activations, not ``floor + 1 = k + 1``."""

    def test_idle_node_window_equal_to_the_period(self):
        # C=5 under (T=10, C=5): w = 5 -> 10; at w = 10 = 1*T one
        # activation, so the window stays 10.
        av = NodeAvailability([], period=100)
        value, converged, _ = resolved_busy_window(5, [(10, 0, 5)], av, CAP)
        assert (value, converged) == (10, True)

    def test_idle_node_window_plus_jitter_on_a_multiple(self):
        # Jitter 5: w = 5 -> 10 -> 15; at w = 15, w + J = 20 = 2*T gives
        # two activations, so the window stays 15.
        av = NodeAvailability([], period=100)
        value, converged, _ = resolved_busy_window(5, [(10, 5, 5)], av, CAP)
        assert (value, converged) == (15, True)

    def test_busy_node_window_on_a_multiple(self):
        # The staircase path: from the busy start at 90 (blocked to
        # 100) the window grows 15 -> 25 -> 30; at w = 30 = 3*T three
        # activations keep the demand at 20, so the window stays 30.
        av = NodeAvailability([(90, 100)], period=100)
        for prune in (True, False):
            value, converged, _ = resolved_busy_window(
                5, [(10, 0, 5)], av, CAP, prune=prune
            )
            assert (value, converged) == (30, True)


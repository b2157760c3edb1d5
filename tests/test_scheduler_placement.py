"""Unit tests for SCS placement candidates (FPS-aware spreading)."""

from repro.analysis.scheduler import ScheduleOptions, _placement_candidates
from repro.model.jobs import Job
from repro.model import Application, TaskGraph

from tests.util import scs_task


def make_job(wcet=10, period=100, deadline=100, release=0):
    task = scs_task("t", wcet=wcet, node="N1")
    graph = TaskGraph(
        name="g", period=period, deadline=deadline, tasks=(task,)
    )
    Application("app", (graph,))
    return Job(
        activity=task,
        graph=graph,
        instance=0,
        release=release,
        abs_deadline=deadline,
    )


def candidates(busy, job, asap, k):
    """The candidate starts of *job* against its node's *busy* intervals."""
    return _placement_candidates(busy, job, asap, ScheduleOptions(fps_candidates=k))


class TestPlacementCandidates:
    def test_single_candidate_without_fps_awareness_budget(self):
        job = make_job()
        out = candidates([], job, 0, 1)
        assert out == [0]

    def test_candidates_spread_over_slack_window(self):
        job = make_job(wcet=10, deadline=100)
        out = candidates([], job, 0, 4)
        assert out[0] == 0
        assert out[-1] == 90  # latest start meeting the deadline
        assert len(out) == 4

    def test_candidates_respect_busy_intervals(self):
        job = make_job(wcet=10, deadline=100)
        out = candidates([(0, 20)], job, 0, 3)  # a 20 MT task at 0
        assert all(start >= 20 for start in out)

    def test_no_negative_window(self):
        # Deadline already passed relative to asap: single candidate at asap.
        job = make_job(wcet=10, deadline=100)
        out = candidates([], job, 250, 4)
        assert out == [250]

    def test_deduplicated_and_sorted(self):
        job = make_job(wcet=50, deadline=60)  # tiny slack window
        out = candidates([], job, 0, 4)
        assert out == sorted(set(out))

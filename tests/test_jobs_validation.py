"""Unit tests for job expansion and system-level validation."""

import pytest

from repro.errors import ValidationError
from repro.model import Application, System, TaskGraph, expand_jobs
from repro.model.validation import validate_system

from tests.util import dyn_msg, fps_task, scs_task, st_msg


def make_app(period1=20, period2=40):
    g1 = TaskGraph(
        name="g1",
        period=period1,
        deadline=period1,
        tasks=(scs_task("a", node="N1"), scs_task("b", node="N2")),
        messages=(st_msg("m", 2, "a", "b"),),
    )
    g2 = TaskGraph(
        name="g2",
        period=period2,
        deadline=period2,
        tasks=(fps_task("e", node="N1"),),
    )
    return Application("app", (g1, g2))


class TestExpandJobs:
    def test_instance_count_follows_period(self):
        app = make_app()
        jobs = expand_jobs(app)  # hyperperiod 40 -> g1 twice
        names = sorted(j.key for j in jobs)
        assert names == ["a#0", "a#1", "b#0", "b#1", "m#0", "m#1"]

    def test_releases_and_deadlines(self):
        app = make_app()
        jobs = {j.key: j for j in expand_jobs(app)}
        assert jobs["a#0"].release == 0
        assert jobs["a#1"].release == 20
        assert jobs["a#1"].abs_deadline == 40
        assert jobs["m#1"].abs_deadline == 40

    def test_task_release_offset_applied(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a", node="N1", release=3),),
        )
        app = Application("app", (g,))
        jobs = expand_jobs(app)
        assert jobs[0].release == 3

    def test_individual_deadline_wins(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a", node="N1", deadline=7),),
        )
        app = Application("app", (g,))
        assert expand_jobs(app)[0].abs_deadline == 7

    def test_fps_tasks_excluded_by_default(self):
        app = make_app()
        assert all(j.name != "e" for j in expand_jobs(app))

    def test_all_activities_when_not_scs_only(self):
        app = make_app()
        names = {j.name for j in expand_jobs(app, scs_only=False)}
        assert "e" in names

    def test_job_count(self):
        # the SCS tasks and ST messages the static scheduler places
        assert len(expand_jobs(make_app(), scs_only=True)) == 6

    def test_custom_horizon(self):
        app = make_app()
        jobs = expand_jobs(app, horizon=20)
        assert sorted(j.key for j in jobs) == ["a#0", "b#0", "m#0"]

    def test_is_task_flag(self):
        app = make_app()
        by_key = {j.key: j for j in expand_jobs(app)}
        assert by_key["a#0"].is_task
        assert not by_key["m#0"].is_task


class TestValidateSystem:
    def test_clean_system_has_no_errors(self):
        sys_ = System(("N1", "N2"), make_app())
        assert [f for f in validate_system(sys_) if f.startswith("error")] == []

    def test_overutilised_node_flagged(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(scs_task("a", node="N1", wcet=11),),
        )
        sys_ = System(("N1",), Application("app", (g,)))
        findings = validate_system(sys_)
        assert any("over-utilised" in f for f in findings)
        with pytest.raises(ValidationError):
            validate_system(sys_, strict=True)

    def test_duplicate_fps_priorities_warned(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(
                fps_task("a", node="N1", priority=1),
                fps_task("b", node="N1", priority=1),
            ),
        )
        sys_ = System(("N1",), Application("app", (g,)))
        assert any("share priority" in f for f in validate_system(sys_))

    def test_duplicate_dyn_priorities_warned(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=10,
            tasks=(
                fps_task("a", node="N1"),
                fps_task("b", node="N2"),
                fps_task("c", node="N2"),
            ),
        )
        g2 = TaskGraph(
            name="g2",
            period=10,
            deadline=10,
            tasks=(
                fps_task("x", node="N1"),
                fps_task("y", node="N2"),
            ),
            messages=(dyn_msg("mx", 1, "x", "y", priority=3),),
        )
        g3 = TaskGraph(
            name="g3",
            period=10,
            deadline=10,
            tasks=(
                fps_task("u", node="N1"),
                fps_task("v", node="N2"),
            ),
            messages=(dyn_msg("mu", 1, "u", "v", priority=3),),
        )
        sys_ = System(("N1", "N2"), Application("app", (g, g2, g3)))
        assert any("share priority" in f for f in validate_system(sys_))

    def test_deadline_beyond_period_noted(self):
        g = TaskGraph(
            name="g",
            period=10,
            deadline=25,
            tasks=(scs_task("a", node="N1"),),
        )
        sys_ = System(("N1",), Application("app", (g,)))
        assert any("exceeds its period" in f for f in validate_system(sys_))

    def test_empty_node_noted(self):
        sys_ = System(("N1", "N2", "N3"), make_app())
        assert any("no tasks" in f for f in validate_system(sys_))
